"""The axioms of program algebra, exhaustively on a small scope.

Bergstra and Loots ("Program algebra for sequential code", JLAP 2002)
give four laws for concatenation and repetition:

    (X;Y);Z = X;(Y;Z)
    (X^n)* = X*            for n > 0
    X*;Y = X*
    (X;Y)* = X;(Y;X)*

Both sides of each law denote the same instruction sequence, so each must
hold under instruction-sequence congruence and under behavioural
congruence.  Under the latter, periods k against n * k (second law) and
prefixes shifted by a whole operand (fourth law) exercise the number of
positions the decider compares.
"""

import itertools

from iseq.canonical import instruction_sequence_congruent
from iseq.extraction import behaviourally_congruent
from iseq.syntax import AbstractAction, Concat, Halt, Jump, NegTest, Plain, PosTest, Repeat, concat_all

A = AbstractAction("a")
B = AbstractAction("b")
ALPHABET = (Plain(A), PosTest(A), NegTest(B), Halt(), Jump(0), Jump(1), Jump(2), Jump(3))
ATOMS = ALPHABET + tuple(Repeat(u) for u in ALPHABET)
TERMS = ATOMS + tuple(Concat(u, v) for u, v in itertools.product(ALPHABET, repeat=2))


def laws():
    """Both sides of every instance: X, Y, Z over the 16 terms u and u* in
    the first law (4,096); X over the 80 terms u, u* and u;v, n from 1 to 3
    in the second (240); X and Y over those 80 terms in the third and the
    fourth (6,400 each); u and v range over {a, +a, -b, !, #0..#3}."""
    for x, y, z in itertools.product(ATOMS, repeat=3):
        yield Concat(Concat(x, y), z), Concat(x, Concat(y, z))
    for x, n in itertools.product(TERMS, (1, 2, 3)):
        yield Repeat(concat_all([x] * n)), Repeat(x)
    for x, y in itertools.product(TERMS, repeat=2):
        yield Concat(Repeat(x), y), Repeat(x)
    for x, y in itertools.product(TERMS, repeat=2):
        yield Repeat(Concat(x, y)), Concat(x, Repeat(Concat(y, x)))


def test_program_algebra_axioms_on_every_small_instance():
    """All 17,136 instances of ``laws``, each side against the other under
    both congruences; about 1 s on a 2-vCPU VM."""
    count = 0
    for left, right in laws():
        assert instruction_sequence_congruent(left, right), (left, right)
        assert behaviourally_congruent(left, right), (left, right)
        count += 1
    assert count == 4096 + 240 + 2 * 6400
