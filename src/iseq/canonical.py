"""Canonical forms of instruction sequences and the two structural deciders.

A closed term denotes a nonempty, finite or eventually periodic sequence of
primitive instructions.  ``CanonicalSeq`` stores such a sequence as a finite
prefix plus an optional repeating block; the stored form always has the
least preperiod and the primitive (shortest) period, subject to the prefix
being nonempty.

Two terms are instruction-sequence congruent iff they denote the same
sequence (first canonical forms coincide), and structurally congruent iff
they coincide after additionally collapsing chained jumps and making all
jumps as short as possible (second canonical forms coincide).

The second canonical form works on the flat ``prefix + period`` tuple of
the first, by index.  Chain resolution is one pass: each stored jump is
resolved once, and a chain that lands on a jump resolved before adds its
own offsets to that jump's displacement, so a step costs O(n) for n stored
positions where walking every chain from scratch cost O(n^2).  Shortening
is arithmetic per jump, and unchanged jumps keep their objects.  A step is
repeated only while normalizing it shortens the prefix or the period, so
there are at most n steps and usually one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TypeVar

from .syntax import (
    Concat,
    InstructionSequenceTerm,
    Jump,
    PrimitiveInstruction,
    Repeat,
    concat_all,
)

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
    # primitive period: shortest divisor-length block generating the same cycle
    k = len(per)
    for d in range(1, k + 1):
        if k % d == 0 and per[:d] * (k // d) == per:
            per = per[:d]
            k = d
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


@dataclass(frozen=True)
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


def _flatten(
    t: InstructionSequenceTerm,
) -> tuple[list[PrimitiveInstruction], list[PrimitiveInstruction]]:
    """Term -> (finite part, repeating part); repeating part may be empty.

    Concatenation after an infinite sequence is dropped and repetition of an
    infinite sequence is the sequence itself, matching the intended
    sequence model of the axioms.  Iterative over concatenation chains so
    long flat programs flatten without deep recursion; recursion depth is
    bounded by repetition nesting only.
    """
    prefix: list[PrimitiveInstruction] = []
    stack = [t]
    while stack:
        node = stack.pop()
        # walk the right spine; only a composite left operand is stacked
        while type(node) is Concat:
            left = node.left
            if type(left) is Concat or type(left) is Repeat:
                stack.append(node.right)
                node = left
            else:
                prefix.append(left)
                node = node.right
        if type(node) is Repeat:
            body_pre, body_per = _flatten(node.body)
            # whatever follows an infinite sequence is unreachable
            if body_per:
                return prefix + body_pre, body_per
            return prefix, body_pre
        prefix.append(node)
    return prefix, []


def to_first_canonical(t: InstructionSequenceTerm) -> CanonicalSeq:
    """Minimized first canonical form (decides the sequence the term denotes)."""
    prefix, period = _flatten(t)
    return _canonical(prefix, period)


def instruction_sequence_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    return to_first_canonical(t) == to_first_canonical(t2)


# ---------------------------------------------------------------------------
# second canonical form: chained-jump collapse plus jump shortening


def _resolve_chains(seq: Sequence[PrimitiveInstruction], m: int) -> list[PrimitiveInstruction]:
    """Replace every jump by a direct jump to its ultimate non-jump target.

    ``seq`` is the flat ``prefix + period`` of a canonical sequence whose
    prefix has ``m`` positions.  A chain that reaches a 0-jump or that
    cycles (possible only through the repeating part) collapses to a 0-jump;
    a chain running past the end of a finite sequence keeps its accumulated
    displacement.  Each stored jump is resolved once: a chain stops at the
    first jump already resolved and adds its own offsets to that jump's
    displacement.
    """
    total = len(seq)
    k = total - m
    on_chain = -1
    # resolved displacement per 0-based index; None until resolved
    disp: list[Optional[int]] = [None] * total
    out = list(seq)
    for start, instr in enumerate(seq):
        if type(instr) is not Jump or disp[start] is not None:
            continue
        chain = []
        q = start
        tail: Optional[int] = 0  # displacement past the chain's end; None for a 0-jump
        while True:
            offset = seq[q].offset
            if offset == 0:
                disp[q] = 0
                tail = None
                break
            disp[q] = on_chain
            chain.append(q)
            q += offset
            if q >= total:
                if not k:
                    break  # past the end of a finite sequence
                q = m + (q - m) % k
            if type(seq[q]) is not Jump:
                break
            landed = disp[q]
            if landed is None:
                continue
            tail = landed if landed > 0 else None  # a 0-jump or a cycle through the chain
            break
        if tail is None:
            for q in chain:
                disp[q] = 0
        else:
            for q in reversed(chain):
                tail += seq[q].offset
                disp[q] = tail
    for q, instr in enumerate(seq):
        if type(instr) is Jump and disp[q] != instr.offset:
            out[q] = Jump(disp[q])
    return out


def _shorten_jumps(seq: list[PrimitiveInstruction], m: int) -> None:
    """Reduce jump literals in place to the shortest-possible form.

    Only sequences with a repeating part shorten: period jumps reduce modulo
    the period length and prefix jumps reaching past the first period copy
    reduce by the fewest multiples of it that bring them back.  Jumps past
    the end of a finite sequence are left untouched.
    """
    k = len(seq) - m
    if not k:
        return
    for q, instr in enumerate(seq):
        if type(instr) is not Jump:
            continue
        offset = instr.offset
        if q >= m:
            offset %= k
        else:
            limit = k + m - q - 1  # the farthest target within the first period copy
            if offset > limit:
                offset -= k * ((offset - limit + k - 1) // k)
        if offset != instr.offset:
            seq[q] = Jump(offset)


def _second_step(canon: CanonicalSeq) -> CanonicalSeq:
    m = len(canon.prefix)
    seq = _resolve_chains(canon.prefix + canon.period, m)
    _shorten_jumps(seq, m)
    return _canonical(seq[:m], seq[m:])


def to_second_canonical(t: InstructionSequenceTerm) -> CanonicalSeq:
    """Minimized second canonical form: no chained jumps, shortest jumps.

    Resolving and shortening is idempotent: afterwards every nonzero jump
    lands on a non-jump or past a finite end, and shortening keeps the
    landing position.  So when normalizing the result leaves the prefix and
    period lengths alone, it left the sequence alone too, and the step is
    the fixpoint.  Only a shorter prefix or period can enable more
    shortening and needs another step.
    """
    canon = to_first_canonical(t)
    while True:
        step = _second_step(canon)
        if len(step.prefix) == len(canon.prefix) and len(step.period) == len(canon.period):
            return step
        canon = step


def structurally_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    return to_second_canonical(t) == to_second_canonical(t2)


def term_of_canonical(canon: CanonicalSeq) -> InstructionSequenceTerm:
    """Rebuild a term denoting exactly the canonical sequence."""
    if canon.is_finite:
        return concat_all(canon.prefix)
    return concat_all(list(canon.prefix) + [Repeat(concat_all(canon.period))])

