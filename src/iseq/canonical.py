"""Canonical forms of instruction sequences and the two structural deciders.

A closed term denotes a nonempty, finite or eventually periodic sequence of
primitive instructions.  ``CanonicalSeq`` stores such a sequence as a finite
prefix plus an optional repeating block; the stored form always has the
least preperiod and the primitive (shortest) period, subject to the prefix
being nonempty.

``syntax.flatten`` spells out the sequence a term denotes as its finite
and repeating parts; the first canonical form normalizes those parts.  Two
terms are instruction-sequence congruent iff they denote the same sequence
(first canonical forms coincide), and structurally congruent iff
they coincide after additionally collapsing chained jumps and making all
jumps as short as possible (second canonical forms coincide).

The second canonical form works on the flat ``prefix + period`` tuple of
the first, by index.  ``_second_step`` gives each jump its successor, and
``threads._chain_ends``, the one chain resolver, gives every jump its
landing in one memoized pass: the first non-jump on its chain, an index
past a finite end, or inaction for a 0-jump or a cycle.  A step, costing
O(n) for n stored positions, makes each jump the shortest jump to its
landing: ``(end - q) mod k`` in a period of length k, ``end - q``
elsewhere, and ``#0`` for inaction.  A step is repeated only while
normalizing it shortens the prefix or the period, so there are at most n
steps and usually one.  The fixpoint's parts are a form of the term kept
by ``syntax._form``, so ``structurally_congruent``, ``normalize --form
second`` and the behavioural layer (:mod:`extraction` writes its position
graph from these parts) derive a term's form once however often they are
asked; each call still returns a new ``CanonicalSeq``.  This is the only
place where jump chains are walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .syntax import (
    InstructionSequenceTerm,
    Jump,
    PrimitiveInstruction,
    Repeat,
    concat_all,
    _flat,
    _form,
)
from .threads import _chain_ends

T = TypeVar("T")


def normalize_ultimately_periodic(
    prefix: Sequence[T], period: Sequence[T]
) -> tuple[tuple[T, ...], tuple[T, ...]]:
    """Least-preperiod, primitive-period form of ``prefix + period^omega``.

    The returned prefix may be empty.  For an empty period the sequence is
    finite and returned unchanged.
    """
    pre = tuple(prefix)
    per = tuple(period)
    if not per:
        return pre, ()
    # primitive period: shortest divisor-length block generating the same cycle,
    # which is one whose shift by d leaves the period as it was; a first block
    # unlike the second rules d out without comparing the whole period
    k = len(per)
    for d in range(1, k):
        if k % d == 0 and per[d : 2 * d] == per[:d] and per[d:] == per[:-d]:
            per, k = per[:d], d
            break
    # absorb the prefix tail into the cycle while it matches the cycle's last
    # element; absorbing r elements rotates the period right by r
    n = len(pre)
    r = 0
    while r < n and pre[n - 1 - r] == per[(k - 1 - r) % k]:
        r += 1
    if r:
        cut = k - r % k
        pre, per = pre[: n - r], per[cut:] + per[:cut]
    return pre, per


@dataclass(frozen=True, slots=True)
class CanonicalSeq:
    """Flat eventually-periodic instruction sequence.

    Invariants: the prefix is nonempty; an empty period means the sequence
    is finite; a nonempty period is primitive and the preperiod is the least
    one compatible with a nonempty prefix.
    """

    prefix: tuple[PrimitiveInstruction, ...]
    period: tuple[PrimitiveInstruction, ...]

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("canonical sequence needs a nonempty prefix")

    @property
    def is_finite(self) -> bool:
        return not self.period

    def positions(self) -> int:
        """Number of distinct stored positions (prefix plus one period copy)."""
        return len(self.prefix) + len(self.period)


def _canonical(
    prefix: Sequence[PrimitiveInstruction], period: Sequence[PrimitiveInstruction]
) -> CanonicalSeq:
    pre, per = normalize_ultimately_periodic(prefix, period)
    if not pre:
        # a pure repetition: unfold one instruction to keep the prefix nonempty
        pre = (per[0],)
        per = per[1:] + (per[0],)
    return CanonicalSeq(pre, per)


def to_first_canonical(t: InstructionSequenceTerm) -> CanonicalSeq:
    """Minimized first canonical form (decides the sequence the term denotes)."""
    prefix, period = _flat(t)
    return _canonical(prefix, period)


def instruction_sequence_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    return to_first_canonical(t) == to_first_canonical(t2)


# ---------------------------------------------------------------------------
# second canonical form: chained-jump collapse plus jump shortening


def _second_step(canon: CanonicalSeq) -> CanonicalSeq:
    """Each jump replaced by the shortest jump to its landing.

    A jump's successor is -1 for a 0-jump, wraps through the repeating
    part, and may lie past the end of a finite sequence;
    ``threads._chain_ends`` follows the chains.
    """
    seq = list(canon.prefix + canon.period)
    m = len(canon.prefix)
    total = len(seq)
    k = total - m
    jumps = [q for q, instr in enumerate(seq) if type(instr) is Jump]
    succ = [0] * total
    for q in jumps:
        to = q + seq[q].offset
        succ[q] = -1 if to == q else to if to < total or not k else m + (to - m) % k
    land = _chain_ends(succ, jumps, total)
    shared: dict[int, Jump] = {}  # one jump per offset, as a parse shares them
    for q in jumps:
        end = land[q]
        offset = 0 if end < 0 else (end - q) % k if q >= m else end - q
        if offset != seq[q].offset:
            seq[q] = shared.get(offset) or shared.setdefault(offset, Jump(offset))
    return _canonical(seq[:m], seq[m:])


def _second(prefix: Sequence[PrimitiveInstruction], period: Sequence[PrimitiveInstruction]) -> tuple:
    """The parts of the second canonical form of ``prefix + period^omega``.

    Resolving and shortening is idempotent: afterwards every nonzero jump
    lands on a non-jump or past a finite end, and shortening keeps the
    landing position.  So when normalizing the result leaves the prefix and
    period lengths alone, it left the sequence alone too, and the step is
    the fixpoint.  Only a shorter prefix or period can enable more
    shortening and needs another step.
    """
    canon = _canonical(prefix, period)
    while True:
        step = _second_step(canon)
        if len(step.prefix) == len(canon.prefix) and len(step.period) == len(canon.period):
            return step.prefix, step.period
        canon = step


def to_second_canonical(t: InstructionSequenceTerm) -> CanonicalSeq:
    """Minimized second canonical form: no chained jumps, shortest jumps."""
    return CanonicalSeq(*_form(t, "second", _second))


def structurally_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    return to_second_canonical(t) == to_second_canonical(t2)


def term_of_canonical(canon: CanonicalSeq) -> InstructionSequenceTerm:
    """Rebuild a term denoting exactly the canonical sequence."""
    if canon.is_finite:
        return concat_all(canon.prefix)
    return concat_all(list(canon.prefix) + [Repeat(concat_all(canon.period))])

