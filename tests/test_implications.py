"""The implication chain between the four congruences, exhaustively.

Instruction-sequence congruence implies structural congruence, which
implies behavioural congruence, which implies behavioural equivalence.
The structural deciders compare canonical forms, the behavioural ones
refine position graphs of the flat terms, so this is where the two routes
must agree.
"""

import itertools

from iseq.canonical import instruction_sequence_congruent, structurally_congruent
from iseq.extraction import behaviourally_congruent, behaviourally_equivalent
from iseq.syntax import AbstractAction, Halt, Jump, NegTest, Plain, PosTest, Repeat, concat_all

A = AbstractAction("a")
B = AbstractAction("b")
ALPHABET = (Plain(A), PosTest(A), NegTest(B), Halt(), Jump(0), Jump(1), Jump(2), Jump(3))


def scope():
    """Every x and x;y over the alphabet, finite, and as x*, x;y* and
    (x;y)*: 8 + 64 + 8 + 64 + 64 = 208 terms."""
    for x in ALPHABET:
        yield x
        yield Repeat(x)
    for x, y in itertools.product(ALPHABET, repeat=2):
        yield concat_all([x, y])
        yield concat_all([x, Repeat(y)])
        yield Repeat(concat_all([x, y]))


def test_implication_chain_on_every_pair_of_short_terms():
    """Every unordered pair of the 208 terms of ``scope`` over {a, +a, -b,
    !, #0..#3}, each term with itself included: 21,736 pairs, about 2 s on
    a 2-vCPU VM.  Every link is strict somewhere: 232 pairs are
    instruction-sequence congruent (208 of them a term and itself), 905
    structurally congruent, 1,262 behaviourally congruent and 4,474
    behaviourally equivalent."""
    terms = list(scope())
    assert len(terms) == 208
    counts = [0, 0, 0, 0]
    for t, t2 in itertools.combinations_with_replacement(terms, 2):
        verdicts = (
            instruction_sequence_congruent(t, t2),
            structurally_congruent(t, t2),
            behaviourally_congruent(t, t2),
            behaviourally_equivalent(t, t2),
        )
        for stronger, weaker in zip(verdicts, verdicts[1:]):
            assert weaker or not stronger, (t, t2, verdicts)
        for i, holds in enumerate(verdicts):
            counts[i] += holds
    assert counts == [232, 905, 1262, 4474]
