import itertools
import random
import tracemalloc

import pytest

from iseq import compute
from iseq.compute import (
    IoConvention,
    compile_table,
    computes_check,
    functionally_equivalent,
    induced_table,
    restrict_to_core,
    search_shortest,
)
from iseq.extraction import extract, synthesize_repetition
from iseq.interaction import Outcome, apply, simulate, use
from iseq.syntax import (
    Focus,
    FunctionTable,
    Halt,
    Jump,
    NegTest,
    Plain,
    PosTest,
    RegisterAction,
    UnaryBoolFunc,
    concat_all,
    leaves,
    parse_function_table,
    parse_instruction_sequence as parse,
    render_term,
    table_from_rows,
)

from . import oracles
from .oracles import content_of_bit, iter_basics
from .genterms import CORE_PAIRS, random_register_program, random_term

ID_TABLE = parse_function_table("inputs 1 outputs 1\n0 -> 0\n1 -> 1\n")
CONST_TRUE = parse_function_table("inputs 0 outputs 1\n -> 1\n")


def conv_foci(conv):
    return (
        [conv.in_focus(i) for i in range(1, conv.n + 1)]
        + [conv.out_focus(i) for i in range(1, conv.m + 1)]
        + [conv.aux_focus(i) for i in range(1, conv.k + 1)]
    )


def random_table(rng, n, m):
    outputs = []
    for _ in range(2**n):
        if rng.random() < 0.25:
            outputs.append(None)
        else:
            outputs.append("".join(rng.choice("01") for _ in range(m)))
    return FunctionTable(n, m, tuple(outputs))


# -- computes_check --------------------------------------------------------------


def test_identity_program_computes_identity():
    assert computes_check(parse("+in:1.i/i;#2;!;out:1.1/1;!"), ID_TABLE, 0)


def test_zero_jump_computes_everywhere_undefined():
    table = table_from_rows(1, 1, {"0": None, "1": None})
    assert computes_check(parse("#0"), table, 0)


def test_constant_true_program():
    assert computes_check(parse("out:1.1/1;!"), CONST_TRUE, 0)


def test_computes_rejects_wrong_program():
    swapped = table_from_rows(1, 1, {"0": "1", "1": "0"})
    assert not computes_check(parse("+in:1.i/i;#2;!;out:1.1/1;!"), swapped, 0)


def test_computes_errors():
    for text in ("(a)*", "+in:1.i/i;(out:1.1/1;!)*"):  # repetition
        for call in (
            lambda: computes_check(parse(text), ID_TABLE, 0),
            lambda: induced_table(parse(text), IoConvention(1, 1, 0)),
            lambda: restrict_to_core(parse(text), IoConvention(1, 1, 0)),
        ):
            with pytest.raises(ValueError, match="^program must be repetition-free$"):
                call()
    with pytest.raises(ValueError):
        computes_check(parse("f.i/i;!"), ID_TABLE, 0)  # foreign focus
    with pytest.raises(ValueError):
        computes_check(parse("aux:2.i/i;!"), ID_TABLE, 1)  # aux out of range
    with pytest.raises(ValueError):
        computes_check(parse("a;!"), ID_TABLE, 0)  # abstract action


def test_computes_agrees_with_simulate_oracle():
    rng = random.Random(79)
    for _ in range(60):
        n, m, k = rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 1)
        conv = IoConvention(n, m, k)
        prog, _ = random_register_program(rng, conv_foci(conv), rng.randint(1, 8))
        table_rows = {}
        for v in range(2**n):
            bits = format(v, f"0{n}b") if n else ""
            regs = {conv.in_focus(i + 1): content_of_bit(b == "1") for i, b in enumerate(bits)}
            regs.update({conv.aux_focus(i): content_of_bit(False) for i in range(1, k + 1)})
            regs.update({conv.out_focus(i): content_of_bit(False) for i in range(1, m + 1)})
            outcome, final = simulate(prog, regs, 10_000)
            if outcome is Outcome.TERMINATED:
                table_rows[bits] = "".join(
                    "1" if final[conv.out_focus(i)].value == "1" else "0"
                    for i in range(1, m + 1)
                )
            else:
                table_rows[bits] = None
        table = table_from_rows(n, m, table_rows)
        assert computes_check(prog, table, k)


def definitional_outputs(prog, conv):
    """Induced rows by the paper's route: extract, use on in/aux, apply on out."""
    thread = extract(prog)
    outputs = []
    for bits in map("".join, itertools.product("01", repeat=conv.n)):
        used_on = {conv.in_focus(i): content_of_bit(b == "1") for i, b in enumerate(bits, start=1)}
        used_on.update({conv.aux_focus(i): content_of_bit(False) for i in range(1, conv.k + 1)})
        result = apply(use(thread, used_on), {conv.out_focus(i): content_of_bit(False) for i in range(1, conv.m + 1)})
        outputs.append(
            "".join(result[conv.out_focus(i)].token for i in range(1, conv.m + 1)) if result else None
        )
    return tuple(outputs)


def test_kernel_matches_definition_on_every_single_instruction():
    conv = IoConvention(1, 1, 1)
    programs = [Halt()] + [Jump(l) for l in range(3)]
    for focus, reply, effect, kind in itertools.product(
        conv_foci(conv), UnaryBoolFunc, UnaryBoolFunc, (Plain, PosTest, NegTest)
    ):
        programs.append(kind(RegisterAction(focus, reply, effect)))
    assert len(programs) == 148
    for prog in programs:
        assert induced_table(prog, conv).outputs == definitional_outputs(prog, conv), prog


def test_kernel_matches_definition_on_seeded_programs():
    rng = random.Random(97)
    conv = IoConvention(2, 2, 1)
    seen = set()
    for _ in range(300):
        prog, noncore = random_register_program(rng, conv_foci(conv), rng.randint(3, 10))
        instrs = leaves(prog)
        for pos, instr in enumerate(instrs, start=1):
            if isinstance(instr, Jump):
                seen.add("#0" if instr.offset == 0 else "past end" if pos + instr.offset > len(instrs) else "#l")
        if noncore:
            seen.add("non-core")
        assert induced_table(prog, conv).outputs == definitional_outputs(prog, conv), prog
    assert seen == {"#0", "past end", "#l", "non-core"}


# Every register form f.m/n, with the content it leaves in a register that
# held 0 and one that held 1 (n(0), n(1)), then how far it moves on from
# each: a plain instruction 1, ``+`` 1 on a true reply m(b) and 2 on a false
# one, ``-`` the other way round.
DECODED = """
 in:1.0/0  0 0  1 1
 in:1.0/1  1 1  1 1
 in:1.0/i  0 1  1 1
 in:1.0/c  1 0  1 1
 in:1.1/0  0 0  1 1
 in:1.1/1  1 1  1 1
 in:1.1/i  0 1  1 1
 in:1.1/c  1 0  1 1
 in:1.i/0  0 0  1 1
 in:1.i/1  1 1  1 1
 in:1.i/i  0 1  1 1
 in:1.i/c  1 0  1 1
 in:1.c/0  0 0  1 1
 in:1.c/1  1 1  1 1
 in:1.c/i  0 1  1 1
 in:1.c/c  1 0  1 1
+in:1.0/0  0 0  2 2
+in:1.0/1  1 1  2 2
+in:1.0/i  0 1  2 2
+in:1.0/c  1 0  2 2
+in:1.1/0  0 0  1 1
+in:1.1/1  1 1  1 1
+in:1.1/i  0 1  1 1
+in:1.1/c  1 0  1 1
+in:1.i/0  0 0  2 1
+in:1.i/1  1 1  2 1
+in:1.i/i  0 1  2 1
+in:1.i/c  1 0  2 1
+in:1.c/0  0 0  1 2
+in:1.c/1  1 1  1 2
+in:1.c/i  0 1  1 2
+in:1.c/c  1 0  1 2
-in:1.0/0  0 0  1 1
-in:1.0/1  1 1  1 1
-in:1.0/i  0 1  1 1
-in:1.0/c  1 0  1 1
-in:1.1/0  0 0  2 2
-in:1.1/1  1 1  2 2
-in:1.1/i  0 1  2 2
-in:1.1/c  1 0  2 2
-in:1.i/0  0 0  1 2
-in:1.i/1  1 1  1 2
-in:1.i/i  0 1  1 2
-in:1.i/c  1 0  1 2
-in:1.c/0  0 0  2 1
-in:1.c/1  1 1  2 1
-in:1.c/i  0 1  2 1
-in:1.c/c  1 0  2 1
"""


def test_truth_tables_and_the_decoding_of_every_register_form():
    values = {(f, b): f(b) for f in UnaryBoolFunc for b in (False, True)}
    assert values == {
        (UnaryBoolFunc.CONST_FALSE, False): False, (UnaryBoolFunc.CONST_FALSE, True): False,
        (UnaryBoolFunc.CONST_TRUE, False): True, (UnaryBoolFunc.CONST_TRUE, True): True,
        (UnaryBoolFunc.IDENTITY, False): False, (UnaryBoolFunc.IDENTITY, True): True,
        (UnaryBoolFunc.COMPLEMENT, False): True, (UnaryBoolFunc.COMPLEMENT, True): False,
    }
    forms = [line.split() for line in DECODED.splitlines() if line]
    assert len({form for form, *_ in forms}) == 48
    for form, *behaviour in forms:
        (op,) = compute._decode([parse(form)], IoConvention(1, 0))
        assert op == (0, *map(int, behaviour)), form
        assert all(type(x) is bool for x in op[1:3]), form


# -- functional equivalence -------------------------------------------------------


def test_functional_equivalence_reflexive():
    prog = parse("+in:1.i/i;#2;!;out:1.1/1;!")
    assert functionally_equivalent(prog, prog, IoConvention(1, 1, 0))


def test_functional_equivalence_of_rewritten_identity():
    prog1 = parse("+in:1.i/i;#2;!;out:1.1/1;!")
    prog2 = parse("-in:1.i/i;#3;out:1.1/1;!;!")
    assert functionally_equivalent(prog1, prog2, IoConvention(1, 1, 0))


def test_functional_inequivalence_of_constants():
    assert not functionally_equivalent(
        parse("out:1.1/1;!"), parse("out:1.0/0;!"), IoConvention(0, 1, 0)
    )


def test_programs_without_output_registers():
    """With m = 0 a program induces no unique table, and any two programs
    are functionally equivalent once both fit the convention."""
    conv = IoConvention(1, 0, 0)
    with pytest.raises(ValueError) as raised:
        induced_table(parse("!"), conv)
    assert str(raised.value) == "programs without output registers induce no unique table"
    assert functionally_equivalent(parse("!"), parse("#0"), conv)
    with pytest.raises(ValueError) as raised:
        functionally_equivalent(parse("out:1.1/1;!"), parse("#0"), conv)
    assert str(raised.value) == "focus out:1 is outside the in/out/aux convention IoConvention(n=1, m=0, k=0)"


# -- row masks against the per-row oracle ---------------------------------------------


def assert_rows_agree(prog, conv, want, row):
    """``induced_table`` reads the oracle's rows ``want``, and
    ``computes_check`` holds on them and fails with row ``row`` changed."""
    assert induced_table(prog, conv).outputs == want, prog
    assert computes_check(prog, FunctionTable(conv.n, conv.m, want), conv.k), prog
    wrong, value = list(want), want[row]
    if value is None:
        wrong[row] = "0" * conv.m
    else:
        wrong[row] = None if row % 2 else ("1" if value[0] == "0" else "0") + value[1:]
    assert not computes_check(prog, FunctionTable(conv.n, conv.m, tuple(wrong)), conv.k), prog


def test_row_masks_match_the_per_row_oracle_on_every_program_of_length_2():
    """All 22,350 programs of length 1 and 2 under IoConvention(1, 1, 1), over
    ``!``, ``#0``..``#3`` and the 144 register forms on in:1, out:1 and aux:1.

    For each program, ``induced_table`` equals the rows of one ``_run`` per
    row (``oracles.row_outputs``), and ``computes_check`` holds on that table
    and fails with one row changed.  ``functionally_equivalent`` decides
    44,700 pairs as the oracle's rows do: each program against a seeded
    program computing the same function and against one computing a seeded
    function drawn from all those the scope computes.
    """
    conv = IoConvention(1, 1, 1)
    foci = (Focus("in", 1), Focus("out", 1), Focus("aux", 1))
    alphabet = [Halt()] + [Jump(k) for k in range(4)] + [
        kind(RegisterAction(focus, reply, effect))
        for focus in foci
        for kind in (Plain, PosTest, NegTest)
        for reply in UnaryBoolFunc
        for effect in UnaryBoolFunc
    ]
    programs = [concat_all(instrs) for length in (1, 2) for instrs in itertools.product(alphabet, repeat=length)]
    assert len(programs) == 22_350
    wants = [oracles.row_outputs(prog, conv) for prog in programs]
    by_function = {}
    for prog, want in zip(programs, wants):
        by_function.setdefault(want, []).append(prog)
    functions = sorted(by_function, key=str)
    rng = random.Random(15)
    verdicts = {True: 0, False: 0}
    for i, (prog, want) in enumerate(zip(programs, wants)):
        assert_rows_agree(prog, conv, want, i % 2)
        for function in (want, rng.choice(functions)):
            other = rng.choice(by_function[function])
            verdict = functionally_equivalent(prog, other, conv)
            assert verdict is (function == want), (prog, other)
            verdicts[verdict] += 1
    assert sum(verdicts.values()) == 44_700 and min(verdicts.values()) > 15_000
    # outputs written on a row that then goes inactive do not count
    assert functionally_equivalent(parse("out:1.1/1;#0"), parse("#0"), conv)
    assert functionally_equivalent(parse("out:1.1/1;#3"), parse("aux:1.0/1;#2"), conv)


def test_row_masks_match_the_per_row_oracle_on_seeded_programs():
    """300 seeded programs of 10 to 60 instructions with n = 4..10 inputs,
    m = 1..2 outputs and k in {0, 1}, covering ``#0``, jumps within and past
    the end and non-core forms.

    The checks of the exhaustive test above, and ``functionally_equivalent``
    on three pairs per program (900 pairs).  The program against its core
    translation and against a copy with one of its first three instructions
    replaced are decided as the oracle's rows decide them.  The program
    against itself followed by ``out:1.c/c`` is equivalent: only rows that
    run past the end reach that instruction, and they go inactive there with
    a changed output.
    """
    rng = random.Random(1515)
    seen = set()
    verdicts = {True: 0, False: 0}
    for case in range(300):
        conv = IoConvention(rng.randint(4, 10), rng.randint(1, 2), rng.randint(0, 1))
        length = rng.randint(10, 60)
        prog, noncore = random_register_program(rng, conv_foci(conv), length)
        instrs = leaves(prog)
        for pos, instr in enumerate(instrs, start=1):
            if isinstance(instr, Jump):
                seen.add("#0" if instr.offset == 0 else "past end" if pos + instr.offset > length else "#l")
        if noncore:
            seen.add("non-core")
        want = oracles.row_outputs(prog, conv)
        assert_rows_agree(prog, conv, want, case % len(want))
        swapped = list(instrs)
        swapped[rng.randrange(3)] = leaves(random_register_program(rng, conv_foci(conv), 1)[0])[0]
        for other in (restrict_to_core(prog, conv), concat_all(swapped)):
            verdict = functionally_equivalent(prog, other, conv)
            assert verdict is (oracles.row_outputs(other, conv) == want), (prog, other)
            verdicts[verdict] += 1
        complement = Plain(RegisterAction(Focus("out", 1), UnaryBoolFunc.COMPLEMENT, UnaryBoolFunc.COMPLEMENT))
        assert functionally_equivalent(prog, concat_all([prog, complement]), conv), prog
        verdicts[True] += 1
        if oracles.row_outputs(concat_all([prog, Halt()]), conv) != want:
            seen.add("rows past the end")
    assert seen == {"#0", "past end", "#l", "non-core", "rows past the end"}
    assert min(verdicts.values()) > 50


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_row_chunks_on_either_side_of_a_chunk_boundary(n):
    """Rows run in chunks of 2**16, so in:1 is fixed within each chunk and
    in:n alternates inside every one.  Two programs that differ only where
    in:1 (or in:n) is set are told apart, and two that compute the same
    function through either input are not.  Each program starts by reading
    every input, which changes nothing, so that all n inputs are named and
    every row runs."""
    conv = IoConvention(n, 1, 0)
    reads = "".join(f"in:{j}.i/i;" for j in range(1, n + 1))
    ones = parse(f"{reads}out:1.1/1;!")
    for i in (1, n):
        zero_where_set = parse(f"{reads}+in:{i}.i/i;!;out:1.1/1;!")
        same = parse(f"{reads}-in:{i}.i/i;out:1.1/1;!;!")
        assert not functionally_equivalent(ones, zero_where_set, conv)
        assert not functionally_equivalent(zero_where_set, ones, conv)
        assert functionally_equivalent(zero_where_set, same, conv)


def test_functional_equivalence_over_the_named_inputs_matches_every_row():
    """600 seeded pairs of programs of 3 to 20 instructions under n = 1..8
    inputs, each program naming a random subset of them (none to all), so
    that the scope is padded with inputs neither names.  In the first 300
    each program names every output and auxiliary register; in the other
    300, under m = 1..3 and k = 0..2, a random nonempty subset of them, so
    that outputs and auxiliary registers are padded too.
    ``functionally_equivalent``, which runs only the named registers' rows,
    decides each pair as the full row runs do: ``induced_table`` over all
    2**n rows and the oracle's one run per row.  The pairs are the program
    against its core translation, against itself followed by
    ``out:1.c/c``, and against a second program over other subsets."""
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for case in range(200):
        padded = case >= 100  # outputs and auxiliary registers too
        conv = IoConvention(rng.randint(1, 8), rng.randint(1, 2 + padded), rng.randint(0, 1 + padded))
        others = conv_foci(IoConvention(0, conv.m, conv.k))

        def program():
            named = rng.sample(range(1, conv.n + 1), rng.randint(0, conv.n))
            regs = rng.sample(others, rng.randint(1, len(others))) if padded else others
            return random_register_program(rng, [conv.in_focus(i) for i in named] + regs, rng.randint(3, 20))[0]

        prog = program()
        complement = Plain(RegisterAction(Focus("out", 1), UnaryBoolFunc.COMPLEMENT, UnaryBoolFunc.COMPLEMENT))
        want = induced_table(prog, conv)
        assert want.outputs == oracles.row_outputs(prog, conv)
        for other in (restrict_to_core(prog, conv), concat_all([prog, complement]), program()):
            full = induced_table(other, conv) == want
            assert full is (oracles.row_outputs(other, conv) == want.outputs)
            assert functionally_equivalent(prog, other, conv) is full, (prog, other, conv)
            assert functionally_equivalent(other, prog, conv) is full, (prog, other, conv)
            verdicts[full] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_functional_equivalence_runs_only_the_named_inputs(monkeypatch):
    """``!`` against ``!;!`` names no input, so at n = 20 both programs run
    one row once each, where all 2**20 rows took 16 chunks of 2**16 each;
    an input named by one program alone counts, and so does its place."""
    calls = []
    run_rows = compute._run_rows
    monkeypatch.setattr(compute, "_run_rows", lambda *args: calls.append(args) or run_rows(*args))
    conv = IoConvention(20, 1, 0)
    assert functionally_equivalent(parse("!"), parse("!;!"), conv)
    assert len(calls) == 2 and calls[0][2] == 1
    calls.clear()
    assert not functionally_equivalent(parse("!"), parse("+in:20.i/i;!;#0"), conv)
    assert len(calls) == 2 and calls[0][2] == 0b11
    assert functionally_equivalent(parse("+in:7.1/i;!;#0"), parse("!"), conv)
    assert functionally_equivalent(parse("+in:3.i/i;out:1.1/1;!"), parse("-in:3.i/i;#2;out:1.1/1;!"), conv)
    assert not functionally_equivalent(parse("+in:3.i/i;out:1.1/1;!"), parse("+in:4.i/i;out:1.1/1;!"), conv)


def spy_rows(monkeypatch):
    """Each ``_run_rows`` call's row mask and its registers as they start."""
    calls = []
    run_rows = compute._run_rows

    def spy(code, regs, rows):
        calls.append((dict(regs), rows))
        return run_rows(code, regs, rows)

    monkeypatch.setattr(compute, "_run_rows", spy)
    return calls


def test_row_checks_keep_every_input_and_output_and_the_named_slots(monkeypatch):
    """Under 10**9 auxiliary registers, a program naming aux:10**9 runs
    with the registers of every input and output and that one slot, by
    their slots in the convention; in:1 is the most significant row bit."""
    calls = spy_rows(monkeypatch)
    table = FunctionTable(2, 2, ("00", "10", "00", "10"))
    assert computes_check(parse("+aux:1000000000.i/i;#0;+in:2.i/i;out:1.1/1;!"), table, 10**9)
    assert calls == [({0: 0b1100, 1: 0b1010, 2: 0, 3: 0, 10**9 + 3: 0}, 0b1111)]


def test_functional_equivalence_keeps_only_the_named_slots(monkeypatch):
    """Under 10**9 outputs and 10**9 auxiliary registers, two programs that
    name in:2, in:5, out:10**9 and aux:10**9 between them each run the 4
    rows of those two inputs, with exactly those four slots, in:2 the more
    significant row bit."""
    calls = spy_rows(monkeypatch)
    conv = IoConvention(8, 10**9, 10**9)
    p = parse("+in:2.i/i;aux:1000000000.1/1;-aux:1000000000.i/i;out:1000000000.1/1;!")
    p2 = parse("-in:2.i/i;out:1000000000.1/1;+in:5.i/i;!;!")
    assert functionally_equivalent(p, p2, conv)
    start = {1: 0b1100, 4: 0b1010, 7 + 10**9: 0, 7 + 2 * 10**9: 0}
    assert calls == [(start, 0b1111)] * 2


def test_row_masks_of_a_compiled_13_input_table_stay_small():
    """``computes_check`` on a compiled table of 13 inputs, 8,192 rows that
    scatter over 6,085 positions, allocates under 2 MB at its peak: the
    mask of a position is dropped once its rows move on (3.8 MB if kept)."""
    rng = random.Random(3)
    table = FunctionTable(13, 1, tuple(rng.choice((None, "0", "1")) for _ in range(2**13)))
    prog = compile_table(table)
    tracemalloc.start()
    try:
        assert computes_check(prog, table, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_row_masks_match_the_per_row_oracle_in_chunks_of_four_rows(monkeypatch):
    """With chunks cut down to 4 rows, 100 seeded programs of 5 to 30
    instructions with n = 3..8 inputs run in 2 to 64 chunks each; the
    induced tables, ``computes_check`` and ``functionally_equivalent``
    against a copy with one of its first three instructions replaced agree
    with the oracle's rows."""
    monkeypatch.setattr(compute, "_CHUNK_BITS", 2)
    rng = random.Random(4)
    for case in range(100):
        conv = IoConvention(rng.randint(3, 8), rng.randint(1, 2), rng.randint(0, 1))
        length = rng.randint(5, 30)
        prog, _ = random_register_program(rng, conv_foci(conv), length)
        want = oracles.row_outputs(prog, conv)
        assert_rows_agree(prog, conv, want, rng.randrange(len(want)))
        swapped = leaves(prog)
        swapped[rng.randrange(3)] = leaves(random_register_program(rng, conv_foci(conv), 1)[0])[0]
        other = concat_all(swapped)
        assert functionally_equivalent(prog, other, conv) is (oracles.row_outputs(other, conv) == want)


@pytest.mark.parametrize("row", [0, 5, 15])
def test_checks_stop_at_the_first_chunk_that_differs(monkeypatch, row):
    """With chunks cut down to 4 rows, a 4-input table runs in 4 chunks.
    Against a table changed only in ``row``, ``computes_check`` runs the
    chunks up to that row's and no more, and ``functionally_equivalent`` of
    the two compiled programs runs both on those chunks; where nothing
    differs, every chunk runs.  The table is 4-input parity, so its
    compiled program reads all four inputs and ``functionally_equivalent``
    runs all 16 rows."""
    monkeypatch.setattr(compute, "_CHUNK_BITS", 2)
    calls = []
    run_rows = compute._run_rows
    monkeypatch.setattr(compute, "_run_rows", lambda *args: calls.append(args) or run_rows(*args))
    outputs = [str(bin(v).count("1") % 2) for v in range(16)]
    table = FunctionTable(4, 1, tuple(outputs))
    outputs[row] = "1" if outputs[row] == "0" else "0"
    changed = FunctionTable(4, 1, tuple(outputs))
    prog, conv = compile_table(table), IoConvention(4, 1)
    assert {basic.focus for basic in iter_basics(prog)} >= {Focus("in", i) for i in range(1, 5)}
    chunks = row // 4 + 1
    for check, want, runs in (
        (lambda: computes_check(prog, changed, 0), False, chunks),
        (lambda: computes_check(prog, table, 0), True, 4),
        (lambda: functionally_equivalent(prog, compile_table(changed), conv), False, 2 * chunks),
        (lambda: functionally_equivalent(prog, compile_table(table), conv), True, 8),
    ):
        calls.clear()
        assert (check(), len(calls)) == (want, runs)


# -- compile_table ----------------------------------------------------------------


def test_compile_identity_table():
    prog = compile_table(ID_TABLE)
    assert computes_check(prog, ID_TABLE, 0)


def test_compile_constant_table():
    prog = compile_table(CONST_TRUE)
    assert computes_check(prog, CONST_TRUE, 0)


def test_compile_everywhere_undefined():
    table = table_from_rows(1, 1, {"0": None, "1": None})
    prog = compile_table(table)
    assert computes_check(prog, table, 0)


def test_compile_uses_core_instructions_only():
    rng = random.Random(83)
    for _ in range(20):
        table = random_table(rng, rng.randint(0, 2), rng.randint(1, 2))
        prog = compile_table(table)
        for basic in iter_basics(prog):
            assert (basic.reply, basic.effect) in CORE_PAIRS
        assert computes_check(prog, table, 0)


def test_compile_all_unary_partial_tables():
    for out0, out1 in itertools.product(("0", "1", None), repeat=2):
        table = table_from_rows(1, 1, {"0": out0, "1": out1})
        assert computes_check(compile_table(table), table, 0)


def every_table(n, m):
    """Every partial table with n inputs and m outputs."""
    values = [None] + ["".join(bits) for bits in itertools.product("01", repeat=m)]
    return [FunctionTable(n, m, outputs) for outputs in itertools.product(values, repeat=2**n)]


def test_compile_lays_out_the_reduced_ordered_decision_diagram():
    """On every table with n <= 2 and m <= 2 (770 tables) and on 300 seeded
    tables with n = 3 to 5, the program tests in:d + 1 once for each
    distinct sub-table at depth d whose two halves differ, as counted by
    brute force over the table; each distinct output value is one leaf:
    one ``!`` per defined value and one ``#0`` if a row is undefined; and
    the program is those 3-slot tests and leaves and nothing else."""
    rng = random.Random(41)
    tables = [table for n in range(3) for m in range(3) for table in every_table(n, m)]
    assert len(tables) == 770
    tables += [random_table(rng, rng.randint(3, 5), rng.randint(0, 3)) for _ in range(300)]
    for table in tables:
        instrs = leaves(compile_table(table))
        tests = [0] * table.n
        for instr in instrs:
            if isinstance(instr, PosTest):
                tests[instr.basic.focus.index - 1] += 1
        wanted = []
        for d in range(table.n):
            size = 2 ** (table.n - d)
            subtables = {table.outputs[i : i + size] for i in range(0, 2**table.n, size)}
            wanted.append(sum(sub[: size // 2] != sub[size // 2 :] for sub in subtables))
        assert tests == wanted, table
        values = set(table.outputs)
        defined = values - {None}
        assert instrs.count(Halt()) == len(defined), table
        assert instrs.count(Jump(0)) == (None in values), table
        ends = sum(value.count("1") + 1 for value in defined) + (None in values)
        assert len(instrs) == 3 * sum(tests) + ends, table


def test_compile_is_correct_on_seeded_tables_of_up_to_10_inputs():
    """300 seeded tables with n = 3 to 10 compile to programs that
    ``computes_check`` accepts."""
    rng = random.Random(10)
    for _ in range(300):
        table = random_table(rng, rng.randint(3, 10), rng.randint(1, 3))
        assert computes_check(compile_table(table), table, 0), table


def test_compiled_and_restricted_programs_share_equal_instructions():
    """Compiled programs of 50 seeded tables, restricted programs of 50
    seeded parsed programs and synthesized programs of 500 seeded terms hold
    one object per distinct instruction, as their parses do."""
    rng = random.Random(12)
    programs = [compile_table(random_table(rng, rng.randint(0, 6), rng.randint(0, 3))) for _ in range(50)]
    for _ in range(50):
        conv = IoConvention(rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 1))
        prog, _ = random_register_program(rng, conv_foci(conv), rng.randint(1, 30))
        programs.append(restrict_to_core(parse(render_term(prog)), conv))
    programs += [synthesize_repetition(random_term(rng, 8)) for _ in range(500)]
    for prog in programs:
        instrs = leaves(prog)
        assert len(set(map(id, instrs))) == len(set(instrs)), render_term(prog)
        assert len(set(map(id, leaves(parse(render_term(prog)))))) == len(set(instrs))


def test_compile_is_correct_on_every_small_table():
    """``compile_table`` computes every table with n + m <= 3 (410 tables),
    and for m >= 1 ``induced_table`` reads the table back."""
    tables = [table for n in range(4) for m in range(4 - n) for table in every_table(n, m)]
    assert len(tables) == 410
    for table in tables:
        prog = compile_table(table)
        assert computes_check(prog, table, 0), table
        if table.m:
            assert induced_table(prog, IoConvention(table.n, table.m, 0)) == table, table


# -- restrict_to_core ---------------------------------------------------------------


def _noncore_count(term):
    return sum(1 for b in iter_basics(term) if (b.reply, b.effect) not in CORE_PAIRS)


def test_restrict_core_program_unchanged_in_length():
    prog = parse("+in:1.i/i;#2;!;out:1.1/1;!")
    core = restrict_to_core(prog, IoConvention(1, 1, 0))
    assert len(leaves(core)) == len(leaves(prog))
    assert functionally_equivalent(prog, core, IoConvention(1, 1, 0))


def test_restrict_translates_plain_complement():
    conv = IoConvention(0, 1, 1)
    prog = parse("aux:1.c/c;+aux:1.i/i;out:1.1/1;!")
    core = restrict_to_core(prog, conv)
    for basic in iter_basics(core):
        assert (basic.reply, basic.effect) in CORE_PAIRS
    assert functionally_equivalent(prog, core, conv)
    assert len(leaves(core)) <= len(leaves(prog)) + 3


def test_restrict_relocates_exits_past_the_end():
    """An exit past the last block lands as many positions past the end:
    in ``+in:1.0/c;!`` the block ``+i +0 1 >2`` exits to the position after
    the ``!``, which it never reaches, so the ``!`` becomes ``#0`` and the
    ``#2`` lands just past the end."""
    core = restrict_to_core(parse("+in:1.0/c;!"), IoConvention(1, 1, 0))
    assert render_term(core) == "+in:1.i/i;+in:1.0/0;in:1.1/1;#2;#0"


def test_restrict_keeps_a_jump_past_the_end_within_the_parser_bound():
    """A jump past the end lands just past it after the translation, which
    may grow the program, so the core program parses back and stays
    functionally equivalent."""
    conv = IoConvention(1, 1, 0)
    prog = parse("+in:1.i/i;#1000000000;+in:1.0/c;+in:1.0/c;!")
    core = parse(render_term(restrict_to_core(prog, conv)))
    assert functionally_equivalent(prog, core, conv)


def test_restrict_per_block_soundness_all_48_forms():
    """Each instruction form, embedded in an exit-observing harness, must
    behave identically after translation, for both register contents."""
    conv = IoConvention(0, 2, 1)
    focus = Focus("aux", 1)
    mark_next = Plain(RegisterAction(Focus("out", 1), UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE))
    mark_skip = Plain(RegisterAction(Focus("out", 2), UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE))
    for kind, reply, effect in itertools.product(
        (Plain, PosTest, NegTest), UnaryBoolFunc, UnaryBoolFunc
    ):
        instr = kind(RegisterAction(focus, reply, effect))
        harness = concat_all(
            [instr, Jump(3), Jump(5), Jump(0), mark_next, Halt(), Jump(0), mark_skip, Halt()]
        )
        core = restrict_to_core(harness, conv)
        for basic in iter_basics(core):
            assert (basic.reply, basic.effect) in CORE_PAIRS
        noncore = _noncore_count(harness)
        assert len(leaves(core)) <= len(leaves(harness)) + 3 * noncore
        for bit in (False, True):
            family = {focus: content_of_bit(bit)}
            assert simulate(harness, dict(family), 1000) == simulate(core, dict(family), 1000)


def test_restrict_random_programs_equivalent_and_core_only():
    rng = random.Random(89)
    over_budget = []
    for _ in range(120):
        n, m, k = rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 1)
        conv = IoConvention(n, m, k)
        prog, noncore = random_register_program(
            rng, conv_foci(conv), rng.randint(3, 10), max_noncore=4
        )
        core = restrict_to_core(prog, conv)
        for basic in iter_basics(core):
            assert (basic.reply, basic.effect) in CORE_PAIRS
        assert functionally_equivalent(prog, core, conv)
        growth = len(leaves(core)) - len(leaves(prog))
        if growth > 3 * noncore:
            over_budget.append(growth - 3 * noncore)
    # the translation meets the three-per-instruction budget on the vast
    # majority of programs; the known hard adjacencies exceed it by a hair
    assert len(over_budget) <= 3
    assert all(excess <= 2 for excess in over_budget)


def test_restrict_exhaustive_up_to_length_2():
    """All 22,350 programs of length 1 and 2 under IoConvention(1, 1, 1).

    The alphabet is ``!``, ``#0``..``#3`` and the 144 register forms
    (3 kinds x 4 replies x 4 effects) on ``in:1``, ``out:1`` and ``aux:1``:
    149 + 149**2 programs.  Every output is core-only and computes the same
    function.  Exactly 36 outputs exceed the budget of three instructions
    per non-core instruction, each by one: a core test that can skip,
    directly before a complement that always skips.
    """
    conv = IoConvention(1, 1, 1)
    foci = (Focus("in", 1), Focus("out", 1), Focus("aux", 1))
    alphabet = [Halt()] + [Jump(k) for k in range(4)] + [
        kind(RegisterAction(focus, reply, effect))
        for focus in foci
        for kind in (Plain, PosTest, NegTest)
        for reply in UnaryBoolFunc
        for effect in UnaryBoolFunc
    ]
    cases = over_budget = 0
    for length in (1, 2):
        for instrs in itertools.product(alphabet, repeat=length):
            prog = concat_all(instrs)
            core = restrict_to_core(prog, conv)
            assert all((b.reply, b.effect) in CORE_PAIRS for b in iter_basics(core))
            assert induced_table(core, conv) == induced_table(prog, conv)
            excess = len(leaves(core)) - length - 3 * _noncore_count(prog)
            assert excess <= 1
            over_budget += excess > 0
            cases += 1
    assert cases == 22_350
    assert over_budget == 36


# -- search ---------------------------------------------------------------------------


def test_search_finds_minimal_identity():
    prog = search_shortest(ID_TABLE, 0, 4)
    assert prog is not None
    assert len(leaves(prog)) == 3
    assert computes_check(prog, ID_TABLE, 0)
    assert search_shortest(ID_TABLE, 0, 2) is None


def test_search_finds_minimal_constant_true():
    prog = search_shortest(CONST_TRUE, 0, 3)
    assert prog is not None
    assert len(leaves(prog)) == 2
    assert search_shortest(CONST_TRUE, 0, 1) is None


def test_search_impossible_budget_returns_none():
    assert search_shortest(ID_TABLE, 0, 1) is None
    assert search_shortest(ID_TABLE, 0, 0) is None


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        search_shortest(ID_TABLE, 0, -1)


def test_search_is_deterministic():
    a = search_shortest(ID_TABLE, 0, 3)
    b = search_shortest(ID_TABLE, 0, 3)
    assert a == b
