"""The per-term memo behind flatten, extraction and the deciders changes no
answer.

``syntax._entry`` keeps the flat parts and extraction's position graphs of
the last ``_MEMO_TERMS`` terms asked about.  Every answer must be the same
whether a term's entry is there (a hit), has been pushed out by other
terms (a miss), or belongs to an equal term built from fresh objects; the
memo must stay within its bound, give out nothing a caller can change, and
answer threads that share terms as it answers one caller.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from iseq import syntax
from iseq.canonical import instruction_sequence_congruent, structurally_congruent, to_second_canonical
from iseq.extraction import behaviourally_congruent, behaviourally_equivalent, extract
from iseq.syntax import Halt, flatten, leaves, parse_instruction_sequence as parse
from iseq.threads import render_thread

from . import oracles
from .genterms import equal_variant, random_term

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


def questions(t, t2):
    """One call per question asked about a pair, each giving a plain value."""
    return [lambda decide=decide: decide(t, t2) for decide in DECIDERS] + [
        lambda: render_thread(extract(t)),
        lambda: render_thread(extract(t2)),
        lambda: repr(to_second_canonical(t)),
        lambda: flatten(t2),
    ]


def seeded_pairs(count, seed=20):
    """Pairs from ``tests/genterms.py``: half denote one sequence, half are
    independent terms."""
    rng = random.Random(seed)
    pairs = []
    for n in range(count):
        t = random_term(rng, 9)
        pairs.append((t, equal_variant(rng, t) if n % 2 else random_term(rng, 9)))
    return pairs


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
    want = [ask() for ask in questions(t, t2)]
    prefix, period = flatten(t)
    prefix[0] = Halt()
    prefix.clear()
    period.append(Halt())
    listed = leaves(t)
    listed.reverse()
    listed.append(Halt())
    assert flatten(t) == flatten(parse("+a;#2;b;!"))
    assert leaves(t) == flatten(t)[0]
    assert [ask() for ask in questions(t, t2)] == want


def test_hits_misses_and_fresh_copies_answer_alike_on_300_seeded_pairs():
    """Each question once on a miss; then all of them in a row, forwards
    and backwards, so that each reads the entries the others filled; then
    on fresh copies of both terms."""
    verdicts = set()
    for t, t2 in seeded_pairs(300):
        asked = questions(t, t2)
        missed = []
        for ask in asked:
            evict()
            missed.append(ask())
        assert [ask() for ask in asked] == missed, (t, t2)
        assert [ask() for ask in reversed(asked)][::-1] == missed, (t, t2)
        fresh = questions(oracles.fresh_copy(t), oracles.fresh_copy(t2))
        assert [ask() for ask in fresh] == missed, (t, t2)
        assert len(syntax._memo) <= syntax._MEMO_TERMS
        verdicts.update(missed[: len(DECIDERS)])
    assert verdicts == {True, False}


def test_threads_sharing_terms_get_the_serial_answers():
    pairs = seeded_pairs(40, seed=21)
    asked = [ask for t, t2 in pairs for ask in questions(t, t2)]
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
