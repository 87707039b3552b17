"""The behavioural deciders and ``extract`` against the routes they replaced.

``tests/oracles.py`` keeps extract -> minimize -> compare for behavioural
equivalence, and one refinement per termination padding from 0 to
max(largest jump, 2) for behavioural congruence; the library decides each
question with one refinement.  Verdicts and extracted threads must agree
exactly, exhaustively on short sequences and on seeded longer ones.
"""

import itertools
import random
import time

from iseq.cli import run_command
from iseq.extraction import behaviourally_congruent, behaviourally_equivalent, extract
from iseq.syntax import AbstractAction, Halt, Jump, NegTest, Plain, PosTest, Repeat, concat_all
from iseq.syntax import parse_instruction_sequence as parse
from iseq.threads import render_thread

from . import oracles

A = AbstractAction("a")
B = AbstractAction("b")
ALPHABET = (Plain(A), PosTest(A), NegTest(B), Halt(), Jump(0), Jump(1), Jump(2), Jump(3))


def term(prefix, period):
    items = list(prefix)
    if period:
        items.append(Repeat(concat_all(period)))
    return concat_all(items)


def sequences(max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(ALPHABET, repeat=length)


def test_deciders_match_oracles_on_every_short_finite_pair():
    """Every pair of finite sequences of equal length 1 or 2 over
    {a, +a, -b, !, #0..#3}: 8^2 + 64^2 = 4,160 pairs, both deciders."""
    cases = congruent = 0
    for length in (1, 2):
        seqs = list(itertools.product(ALPHABET, repeat=length))
        for x, y in itertools.product(seqs, repeat=2):
            t, t2 = term(x, ()), term(y, ())
            want = oracles.behaviourally_congruent((x, ()), (y, ()))
            assert behaviourally_congruent(t, t2) is want, (x, y)
            assert behaviourally_equivalent(t, t2) is oracles.behaviourally_equivalent((x, ()), (y, ())), (x, y)
            cases += 1
            congruent += want
    assert cases == 4160
    assert congruent > len(ALPHABET) ** 2 + len(ALPHABET)  # not only identical pairs


def test_deciders_match_oracles_on_every_short_periodic_pair():
    """Every pair of repetitions ``x*`` and ``x;(y)*`` and ``(x;y)*`` with x,
    y over {a, +a, -b, !, #0..#2}: 7 + 49 + 49 = 105 terms, 11,025 pairs of
    behavioural congruence and, on the first 3,000 of them, equivalence.
    (Normalization shortens a longer jump in these to one of #0..#2.)"""
    alphabet = ALPHABET[:-1]
    splits = [((), (x,)) for x in alphabet]
    splits += [((x,), (y,)) for x, y in itertools.product(alphabet, repeat=2)]
    splits += [((), (x, y)) for x, y in itertools.product(alphabet, repeat=2)]
    congruent = 0
    for n, (x, y) in enumerate(itertools.product(splits, repeat=2)):
        t, t2 = term(*x), term(*y)
        want = oracles.behaviourally_congruent(x, y)
        assert behaviourally_congruent(t, t2) is want, (x, y)
        if n < 3000:
            assert behaviourally_equivalent(t, t2) is oracles.behaviourally_equivalent(x, y), (x, y)
        congruent += want
    assert n + 1 == 11025
    assert congruent > len(splits)


SEEDED_ALPHABET = (
    Plain(A), Plain(B), PosTest(A), NegTest(A), PosTest(B), NegTest(B), Halt(),
    *(Jump(offset) for offset in range(9)),
)


def random_split(rng, length):
    seq = tuple(rng.choice(SEEDED_ALPHABET) for _ in range(length))
    cut = length if rng.random() < 0.6 else rng.randrange(length)
    return seq[:cut], seq[cut:]


def mutant(rng, split):
    """The same split with one instruction replaced."""
    seq = list(split[0] + split[1])
    seq[rng.randrange(len(seq))] = rng.choice(SEEDED_ALPHABET)
    cut = len(split[0])
    return tuple(seq[:cut]), tuple(seq[cut:])


def test_deciders_match_oracles_on_seeded_pairs():
    """3,000 seeded pairs (seed 41) of sequences of length 1 to 6 over a, b,
    +a, -a, +b, -b, ! and #0..#8, finite or with a repeating part: each
    sequence against a one-instruction mutant of itself, both deciders."""
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        x = random_split(rng, rng.randint(1, 6))
        y = mutant(rng, x)
        t, t2 = term(*x), term(*y)
        want = oracles.behaviourally_congruent(x, y)
        assert behaviourally_congruent(t, t2) is want, (x, y)
        assert behaviourally_equivalent(t, t2) is oracles.behaviourally_equivalent(x, y), (x, y)
        verdicts[want] += 1
    assert min(verdicts.values()) > 300  # both verdicts are well represented


def test_extract_matches_oracle_on_every_short_split():
    """Every (prefix, period) split of every sequence of length 1 to 3 over
    {a, +a, -b, !, #0..#3}, finite or not: 2*8 + 3*64 + 4*512 = 2,256
    terms; the thread and its rendering equal the reference extract ->
    minimize."""
    cases = 0
    for seq in sequences(3):
        for cut in range(len(seq) + 1):
            want = oracles.extract(seq[:cut], seq[cut:])
            got = extract(term(seq[:cut], seq[cut:]))
            assert got == want, seq
            assert render_thread(got) == render_thread(want), seq
            cases += 1
    assert cases == 2256


def test_long_jump_congruence_is_fast():
    """One refinement whatever the jump literal; with one refinement per
    padding, ``a;#3000;!`` took seconds."""
    p = parse("a;#3000;!")
    start = time.perf_counter()
    assert behaviourally_congruent(p, p)
    assert not behaviourally_congruent(p, parse("a;#2999;!"))
    assert time.perf_counter() - start < 0.05


def test_huge_jump_congruence_from_the_cli():
    start = time.perf_counter()
    code, out, err = run_command(
        ["equiv", "--relation", "congruence", "-e", "a;#100000000;!", "-e", "a;#100000000;!"]
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "true\n", "")
