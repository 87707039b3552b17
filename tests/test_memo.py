"""The per-term memo behind flatten, extraction, the deciders, the second
canonical form and the program checks changes no answer.

``syntax._entry`` keeps the flat parts, extraction's position graph, the
second canonical form, and a convention's decoded program and the rows of
its run, when they fit in one chunk, of the last ``_MEMO_TERMS`` terms
asked about.  Every answer must be the same whether a
term's entry is there (a hit), has been pushed out by other terms (a
miss), or belongs to an equal term built from fresh objects; the memo must
stay within its bound, give out nothing a caller can change, derive each
form once per term, and answer threads that share terms as it answers one
caller.
"""

import gc
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from iseq import canonical, compute, extraction, syntax
from iseq.canonical import instruction_sequence_congruent, structurally_congruent, to_second_canonical
from iseq.compute import IoConvention, computes_check, functionally_equivalent, induced_table, restrict_to_core
from iseq.extraction import behaviourally_congruent, behaviourally_equivalent, extract
from iseq.syntax import (
    Focus,
    FunctionTable,
    Halt,
    Plain,
    RegisterAction,
    UnaryBoolFunc,
    concat_all,
    flatten,
    leaves,
    parse_instruction_sequence as parse,
    render_term,
)
from iseq.threads import render_thread

from . import oracles
from .genterms import equal_variant, random_register_program, random_term
from .test_compute import conv_foci

DECIDERS = (
    behaviourally_equivalent,
    behaviourally_congruent,
    structurally_congruent,
    instruction_sequence_congruent,
)

# terms that push every other entry out of the memo
FILLERS = [parse(f"a;#{i};b") for i in range(syntax._MEMO_TERMS)]


def evict():
    for filler in FILLERS:
        flatten(filler)


def questions(t, t2, p, p2, conv):
    """One call per question asked about two terms and two register
    programs under a convention, each giving a plain value.

    The table is the one ``p2`` computes, so ``p`` computes it exactly when
    the two programs are functionally equivalent.  ``p`` is also extracted,
    so that its entry holds a graph beside its decoding, and read under a
    convention with one more auxiliary register, so that its decoding
    changes convention between questions.
    """
    table = FunctionTable(conv.n, conv.m, oracles.row_outputs(p2, conv))
    wider = IoConvention(conv.n, conv.m, conv.k + 1)
    return [lambda decide=decide: decide(t, t2) for decide in DECIDERS] + [
        lambda: render_thread(extract(t)),
        lambda: render_thread(extract(t2)),
        lambda: repr(to_second_canonical(t)),
        lambda: flatten(t2),
        lambda: computes_check(p, table, conv.k),
        lambda: computes_check(p2, table, conv.k),
        lambda: induced_table(p, conv),
        lambda: functionally_equivalent(p, p2, conv),
        lambda: render_term(restrict_to_core(p, conv)),
        lambda: induced_table(p, wider),
        lambda: render_thread(extract(p)),
    ]


def seeded_cases(count, seed=20):
    """Cases ``(t, t2, p, p2, conv)``.  The terms come from
    ``tests/genterms.py``: half denote one sequence, half are independent
    terms.  The programs are seeded register programs of 1 to 10
    instructions with 1 to 3 inputs, 1 or 2 outputs and 0 or 1 auxiliary
    register; half the time ``p2`` is ``p`` followed by ``out:1.c/c``,
    which only rows that run past the end reach and which leaves them
    inactive, so the two are functionally equivalent, and half the time an
    independent program."""
    rng = random.Random(seed)
    complement = Plain(RegisterAction(Focus("out", 1), UnaryBoolFunc.COMPLEMENT, UnaryBoolFunc.COMPLEMENT))
    cases = []
    for n in range(count):
        t = random_term(rng, 9)
        t2 = equal_variant(rng, t) if n % 2 else random_term(rng, 9)
        conv = IoConvention(rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 1))
        p = random_register_program(rng, conv_foci(conv), rng.randint(1, 10))[0]
        other = random_register_program(rng, conv_foci(conv), rng.randint(1, 10))[0]
        p2 = concat_all([p, complement]) if n % 2 else other
        cases.append((t, t2, p, p2, conv))
    return cases


def test_the_memo_keeps_no_more_terms_than_its_bound():
    terms = [parse(f"+a;#{i};b;(c;#{i % 3})*") for i in range(40)]
    for t, t2 in zip(terms, terms[1:]):
        behaviourally_congruent(t, t2)
        extract(t)
        assert len(syntax._memo) <= syntax._MEMO_TERMS
    recent = terms[-syntax._MEMO_TERMS:]
    for t in recent:
        flatten(t)
    assert [entry[0] for entry in syntax._memo.values()] == recent  # oldest first


def test_changing_what_flatten_or_leaves_returns_changes_no_later_answer():
    t = parse("+a;#2;b;!")
    t2 = parse("+a;#2;b;!;(c)*")
    p = parse("+in:1.i/i;#2;out:1.1/1;!")
    p2 = parse("-in:1.i/i;out:1.1/1;!")
    conv = IoConvention(1, 1, 0)
    want = [ask() for ask in questions(t, t2, p, p2, conv)]
    for term in (t, p):
        prefix, period = flatten(term)
        prefix[0] = Halt()
        prefix.clear()
        period.append(Halt())
        listed = leaves(term)
        listed.reverse()
        listed.append(Halt())
    assert flatten(t) == flatten(parse("+a;#2;b;!"))
    assert flatten(p) == flatten(parse("+in:1.i/i;#2;out:1.1/1;!"))
    assert leaves(t) == flatten(t)[0]
    assert [ask() for ask in questions(t, t2, p, p2, conv)] == want


def fresh_case(t, t2, p, p2, conv):
    """The case rebuilt from new objects, the convention too."""
    return (*map(oracles.fresh_copy, (t, t2, p, p2)), IoConvention(conv.n, conv.m, conv.k))


def test_hits_misses_and_fresh_copies_answer_alike_on_300_seeded_pairs():
    """Each of the 15 questions about a pair of terms and a pair of
    programs once on a miss; then all of them in a row, forwards and
    backwards, so that each reads the entries the others filled; then on
    fresh copies of the terms, the programs and the convention.  300 cases,
    4,500 questions asked four times each."""
    verdicts = set()
    equivalent = set()
    for case in seeded_cases(300):
        asked = questions(*case)
        missed = []
        for ask in asked:
            evict()
            missed.append(ask())
        assert [ask() for ask in asked] == missed, case
        assert [ask() for ask in reversed(asked)][::-1] == missed, case
        fresh = questions(*fresh_case(*case))
        assert [ask() for ask in fresh] == missed, case
        assert len(syntax._memo) <= syntax._MEMO_TERMS
        verdicts.update(missed[: len(DECIDERS)])
        computes, functional = missed[8], missed[11]
        assert computes is functional, case  # p computes p2's table iff the two are equivalent
        equivalent.add(functional)
    assert verdicts == {True, False}
    assert equivalent == {True, False}


def test_threads_sharing_terms_get_the_serial_answers():
    """40 seeded cases, 600 questions, each asked 10 times by each of 4
    threads in its own shuffled order."""
    asked = [ask for case in seeded_cases(40, seed=21) for ask in questions(*case)]
    serial = [ask() for ask in asked]

    def answers(seed):
        order = list(range(len(asked)))
        random.Random(seed).shuffle(order)
        got = [None] * len(asked)
        for _ in range(10):
            for i in order:
                got[i] = asked[i]()
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(answers, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(got == serial for got in results)


def counted(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is counted in the returned list."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_second_canonical_form_is_derived_once_per_term(monkeypatch):
    """Three finite terms, each normalized in one step: a chained jump, its
    shortest form, and a term that differs at its last action."""
    t, variant, mutant = (parse(text) for text in ("a;#2;b;#1;c;!", "a;#3;b;#1;c;!", "a;#3;b;#1;d;!"))
    evict()
    steps = counted(monkeypatch, canonical, "_second_step")
    assert structurally_congruent(t, variant)
    assert not structurally_congruent(t, mutant)
    form = to_second_canonical(t)
    assert len(steps) == 3
    again = to_second_canonical(t)
    assert again == form and again is not form  # a new result on every call
    assert len(steps) == 3


def test_each_position_graph_is_written_once_per_term(monkeypatch):
    """A finite and a periodic term, each asked ``extract`` and both
    behavioural deciders against itself with the memo cleared first: one
    graph serves all three, so each term's graph is written once."""
    for text in ("+a;#2;b;!;c", "+a;#2;b;(!;c)*"):
        t = parse(text)
        evict()
        writes = counted(monkeypatch, extraction, "_write")
        extract(t)
        assert behaviourally_equivalent(t, t)
        assert behaviourally_congruent(t, t)
        assert len(writes) == 1, text
        monkeypatch.undo()


CHAINED = ("+a;#2;(#3;b;#2;c;#1;d)*", "a;#1;(#2)*")  # one step and two steps to the second form


def test_jump_chains_are_walked_once_per_second_step(monkeypatch):
    """Terms with chained jumps, each asked for its second canonical form,
    structural congruence, both behavioural deciders and ``extract`` with
    the memo cleared first: the chains are walked once per step of the
    second canonical form and never again, since the position graph is
    written from that form."""
    for text in CHAINED:
        t = parse(text)
        evict()
        steps = counted(monkeypatch, canonical, "_second_step")
        walks = counted(monkeypatch, canonical, "_chain_ends")
        to_second_canonical(t)
        assert structurally_congruent(t, t)
        assert behaviourally_equivalent(t, t)
        assert behaviourally_congruent(t, t)
        extract(t)
        assert len(walks) == len(steps) == CHAINED.index(text) + 1, text
        monkeypatch.undo()


def test_a_structural_question_after_a_behavioural_one_derives_nothing(monkeypatch):
    """A behavioural question derives the term's second canonical form and
    its graph; structural congruence and the second canonical form asked
    later read them from the memo entry."""
    for text in CHAINED:
        t = parse(text)
        evict()
        assert behaviourally_congruent(t, t)
        kept = dict(syntax._entry(t)[2])
        assert sorted(kept) == ["graph", "second"]
        steps = counted(monkeypatch, canonical, "_second_step")
        assert structurally_congruent(t, t)
        assert to_second_canonical(t) == canonical.CanonicalSeq(*kept["second"][1])
        assert steps == [] and syntax._entry(t)[2] == kept, text
        monkeypatch.undo()


def test_each_program_is_decoded_once_per_convention(monkeypatch):
    """Four checks of one compiled program under one convention, the last
    against a second program, decode the two programs once each."""
    conv = IoConvention(2, 1, 0)
    table = FunctionTable(2, 1, ("0", "1", None, "1"))
    wrong = FunctionTable(2, 1, ("0", "1", None, "0"))
    program = compute.compile_table(table)
    other = parse("+in:2.i/i;out:1.1/1;!")
    evict()
    decodes = counted(monkeypatch, compute, "_decode")
    assert computes_check(program, table, 0)
    assert not computes_check(program, wrong, 0)
    assert induced_table(program, conv) == table
    assert not functionally_equivalent(program, other, conv)
    assert len(decodes) == 2


def test_each_program_runs_its_rows_once_per_convention(monkeypatch):
    """A compiled program checked against its table and a changed one and
    asked for its induced table runs its one chunk of rows once; under a
    second convention it runs them again, once, and so it does back under
    the first, since an entry keeps one convention's rows at a time."""
    table = FunctionTable(2, 1, ("0", "1", None, "1"))
    wrong = FunctionTable(2, 1, ("0", "1", None, "0"))
    program = compute.compile_table(table)
    evict()
    runs = counted(monkeypatch, compute, "_run_rows")
    for k, want in ((0, 1), (1, 2), (0, 3)):
        assert computes_check(program, table, k)
        assert not computes_check(program, wrong, k)
        assert induced_table(program, IoConvention(2, 1, k)) == table
        assert len(runs) == want, k


def test_rows_that_span_several_chunks_are_not_kept(monkeypatch):
    """With chunks cut down to 4 rows, a compiled 4-input table runs in 4
    chunks: every check runs all of them again, and the entry keeps its
    decoding but no rows, even after a check that ran every chunk."""
    monkeypatch.setattr(compute, "_CHUNK_BITS", 2)
    rng = random.Random(5)
    table = FunctionTable(4, 1, tuple(rng.choice((None, "0", "1")) for _ in range(16)))
    program = compute.compile_table(table)
    evict()
    runs = counted(monkeypatch, compute, "_run_rows")
    for asked in range(1, 4):
        assert computes_check(program, table, 0)
        assert induced_table(program, IoConvention(4, 1)) == table
        assert len(runs) == 8 * asked
        assert list(syntax._entry(program)[2]) == ["program"]


def test_a_rejected_program_keeps_no_rows():
    """A program naming aux:2 is rejected with one auxiliary register and
    keeps no rows; with two it keeps them, and a later rejection leaves
    those rows as they were."""
    program = parse("+aux:2.i/i;out:1.1/1;!")
    table = FunctionTable(1, 1, ("0", "0"))
    evict()
    for check in (lambda: computes_check(program, table, 1), lambda: induced_table(program, IoConvention(1, 1, 1))):
        with pytest.raises(ValueError):
            check()
        assert "rows" not in syntax._entry(program)[2]
    assert computes_check(program, table, 2)
    kept = syntax._entry(program)[2]["rows"]
    with pytest.raises(ValueError):
        computes_check(program, table, 1)
    assert syntax._entry(program)[2]["rows"] is kept
    assert kept[0] == IoConvention(1, 1, 2)


def traced(build):
    """``build()`` and the bytes it allocated that are still held after it."""
    gc.collect()
    tracemalloc.start()
    try:
        value = build()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_kept_rows_take_no_more_memory_than_the_induced_table():
    """A 20-instruction program naming 16 inputs and 2 outputs runs its
    65,536 rows in one chunk, and keeps them.  What a check leaves held
    beyond the program's decoding is no larger than what the table that
    ``induced_table`` returns holds once the memo has let the program go
    (about 1.1 MB each on CPython 3.11), and that table holds a tuple of its
    own, not the kept one."""
    steps = [f"+in:{i}.i/i" for i in range(1, 17)]
    steps[5:5] = ["out:1.c/c"]
    steps[11:11] = ["out:2.1/1"]
    steps[17:17] = ["#0"]
    program = parse(";".join(steps + ["!"]))
    conv = IoConvention(16, 2)
    assert len(leaves(program)) == 20
    evict()
    table = induced_table(program, conv)
    assert len(table.outputs) == 2**16
    assert table.outputs is not syntax._entry(program)[2]["rows"][1]
    evict()
    compute._validate_program(program, conv)
    computes, kept = traced(lambda: computes_check(program, table, 0))
    assert computes and "rows" in syntax._entry(program)[2]
    evict()
    _, alone = traced(lambda: [induced_table(program, conv), evict()][0])
    assert kept <= alone, (kept, alone)


def test_equal_output_rows_share_one_string():
    """``+in:1.i/i;...;+in:16.i/i;out:1.1/1;out:2.c/c;!`` has 65,536 rows
    in one chunk and 2 distinct outputs.  Its kept rows and its induced
    table hold under 1.5 MB, two tuples of 65,536 references; with a string
    per row they held 4.4 MB (CPython 3.11)."""
    program = parse(";".join([f"+in:{i}.i/i" for i in range(1, 17)] + ["out:1.1/1", "out:2.c/c", "!"]))
    conv = IoConvention(16, 2)
    evict()
    compute._validate_program(program, conv)
    table, held = traced(lambda: induced_table(program, conv))
    assert "rows" in syntax._entry(program)[2]
    assert len(set(map(id, table.outputs))) == 2
    assert held < 1_500_000, held


def test_a_rejected_program_keeps_nothing_for_a_later_convention():
    program = parse("+aux:2.i/i;out:1.1/1;!")
    narrow, wide = IoConvention(1, 1, 1), IoConvention(1, 1, 2)
    with pytest.raises(ValueError) as first:
        induced_table(program, narrow)
    assert induced_table(program, wide) == FunctionTable(1, 1, ("0", "0"))
    with pytest.raises(ValueError) as again:
        induced_table(program, narrow)
    assert str(again.value) == str(first.value)
    assert "aux:2" in str(first.value)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_each_convention_reads_its_own_decoding(order):
    """One program, read with in:1 as the only input and as the high one of
    two: each convention gives its own table, whichever is asked first."""
    program = parse("+in:1.i/i;out:1.1/1;!")
    cases = [(IoConvention(1, 1, 0), ("0", "1")), (IoConvention(2, 1, 0), ("0", "0", "1", "1"))]
    for i in order:
        conv, outputs = cases[i]
        assert induced_table(program, conv) == FunctionTable(conv.n, 1, outputs)


def test_a_program_checked_under_many_conventions_keeps_one_decoding():
    """A sweep over 100 auxiliary register counts leaves one decoded program
    and one run's rows in the term's entry, both under the last convention,
    so an entry's size does not grow with the number of conventions asked
    about."""
    program = parse("+in:1.i/i;out:1.1/1;!")
    table = FunctionTable(1, 1, ("0", "1"))
    assert all(computes_check(program, table, k) for k in range(100))
    forms = syntax._entry(program)[2]
    assert sorted(forms) == ["program", "rows"]
    assert {given for given, _ in forms.values()} == {IoConvention(1, 1, 99)}
