"""Interaction of threads with Boolean register families.

``use`` is the effect of a family on a thread: actions on registers the
family knows are carried out and leave an internal tau step behind, actions
on unknown registers stay observable, and touching an inoperative register
deadlocks.  ``apply`` is the effect of a thread on a family: the
deterministic run of the thread over the family, returning the final family
on termination and the empty family on inaction, divergence, an unknown
focus or an inoperative register.  ``abstract_tau`` conceals internal steps.
``use`` writes its product into the int arrays of :mod:`threads`, and
``abstract_tau`` resolves tau chains there by ``_chain_ends``, as jumps are.

A run holds registers as the bits of one int, by slot, as the row kernel
and the search of :mod:`compute` do.  ``_decoder`` decodes each thread
state once and gives a register its slot when it first decodes a state
that acts on it; the bit says whether the register differs from its
content in the family, so a run starts from bits 0, reads the family only
at the registers it reaches, and ``_family`` writes them back.  ``_run`` is
the one step loop: ``apply`` and ``simulate``, which reads a term's flat
positions as thread states to cross-check apply after extract, run in it,
and ``use`` steps through it once per product state.
"""

from __future__ import annotations

import enum
import functools
from typing import Callable, Iterator

from .registers import RegisterFamily
from .syntax import Focus, Halt, InstructionSequenceTerm, Jump, PrimitiveInstruction, RegisterAction
from .syntax import RegisterContent, _EXITS, _TRUTH, _flat
from .threads import TAU, Branch, Dead, Node, RegularThread, Stop, _arrays, _chain_ends, _quotient


class Outcome(enum.Enum):
    TERMINATED = "terminated"
    INACTIVE = "inactive"
    FUEL_EXHAUSTED = "fuel-exhausted"


def _family(family: RegisterFamily, slots: dict[Focus, int], bits: int) -> RegisterFamily:
    """``family`` with each slotted register whose bit of ``bits`` is set flipped."""
    flip = {RegisterContent.ZERO: RegisterContent.ONE, RegisterContent.ONE: RegisterContent.ZERO}
    return {**family, **{focus: flip[family[focus]] for focus, slot in slots.items() if bits >> slot & 1}}


def _decoder(
    node_of: Callable, family: dict, observable=False, abstract="abstract action {} cannot interact with registers"
) -> tuple[Callable, dict[Focus, int]]:
    """The decoding of state q, whose node is ``node_of(q)``, kept by
    ``functools.cache``, and the slots it gives out.  Stop gives TERMINATED
    and Dead INACTIVE, an internal step its successor, and ``f.m/n`` on a
    register that ``family`` holds as c (0 or 1) gives f its slot s when
    first decoded, and (s, n(c) ^ c, n(1 - c) ^ c, successor on m(c),
    successor on m(1 - c)), as ``compute._decode`` does for c = 0: f's bit
    says whether f differs from c.  Other register actions stick, as
    INACTIVE, or give None, observable, where ``observable`` and ``family``
    does not hold the register; an abstract action raises ValueError,
    ``abstract`` naming it."""
    slots: dict[Focus, int] = {}

    @functools.cache
    def decode(q: int):
        node = node_of(q)
        if type(node) is not Branch:  # Stop or Dead
            return Outcome.TERMINATED if type(node) is Stop else Outcome.INACTIVE
        action = node.action
        if action is TAU:
            return node.on_true
        if type(action) is not RegisterAction:
            raise ValueError(abstract.format(action))
        content = family.get(action.focus)
        if content is not RegisterContent.ZERO and content is not RegisterContent.ONE:
            return None if observable and content is None else Outcome.INACTIVE
        c = content is RegisterContent.ONE  # bit b reads the register as b ^ c
        on, effect = _TRUTH[action.reply._value_], _TRUTH[action.effect._value_]  # not UnaryBoolFunc.__call__
        yes, no = node.on_true, node.on_false
        slot = slots.setdefault(action.focus, len(slots))
        return slot, effect[c] ^ c, effect[not c] ^ c, yes if on[c] else no, yes if on[not c] else no

    return decode, slots


def _run(decode: Callable[[int], Outcome | int | tuple], q: int, bits: int, fuel: int) -> tuple[Outcome, int, int]:
    """The Outcome that ``decode`` gives within ``fuel`` steps from state
    ``q`` with the register bits ``bits``, else FUEL_EXHAUSTED, and the
    state and bits the run stops at.  A bit is 0 until the run reaches its
    register, so (q, bits) stands for one configuration, and one that comes
    back makes the run periodic: Brent's cycle finding compares each with
    the one at the last power-of-two step, and a match L steps later leaves
    only the fuel modulo L to run, so the work is bounded by the
    configurations, whatever the fuel, and the memory holds two of them."""
    mark_q, mark_bits, since, power = -1, 0, 0, 1  # the configuration at the last power of two
    while fuel > 0:
        if q == mark_q and bits == mark_bits:
            fuel %= since
            if not fuel:
                break
        elif since == power:
            mark_q, mark_bits, since, power = q, bits, 0, 2 * power
        since += 1
        fuel -= 1
        op = decode(q)
        if type(op) is int:
            q = op
        elif type(op) is tuple:  # (slot, effect on 0, effect on 1, successor on 0, successor on 1)
            bit = bits >> op[0] & 1
            bits ^= (op[1 + bit] ^ bit) << op[0]
            q = op[3 + bit]
        else:
            return op, q, bits
    return Outcome.FUEL_EXHAUSTED, q, bits


def use(thread: RegularThread, family: RegisterFamily) -> RegularThread:
    """Product of the thread with the family it runs against, written into
    the arrays of :mod:`threads`: one state per (thread state, bits of the
    registers reached so far), numbered as found from (root, 0).  A thread
    state acting on a register the family does not hold keeps its action,
    under its own label."""
    decode, _ = _decoder(thread.nodes.__getitem__, family, observable=True)
    outcomes = (Outcome.FUEL_EXHAUSTED, Outcome.TERMINATED, Outcome.INACTIVE)  # labels 0, 1, 2: tau, Stop, Dead
    labels: dict[int, int] = {}  # thread state -> label, for those whose action stays observable
    found = [(thread.root, 0)]
    index = {found[0]: 0}
    rows = []  # (label, on_true, on_false) per product state

    def state_id(key: tuple[int, int]) -> int:
        if index.setdefault(key, len(found)) == len(found):
            found.append(key)
        return index[key]

    for q, bits in found:  # the list grows while it is walked: a queue
        if decode(q) is None:  # an action on a register the family does not hold
            node = thread.nodes[q]
            label = labels.setdefault(q, 3 + len(labels))
            rows.append((label, state_id((node.on_true, bits)), state_id((node.on_false, bits))))
        else:  # an internal step, or a leaf, whose state stays put
            outcome, q, bits = _run(decode, q, bits, 1)
            succ = state_id((q, bits))
            rows.append((outcomes.index(outcome), succ, succ))
    return _quotient([TAU, Stop, Dead, *(thread.nodes[q].action for q in labels)], *zip(*rows), 0)


def apply(thread: RegularThread, family: RegisterFamily) -> RegisterFamily:
    """Final family after running the thread on it by the step rule; empty
    on inaction or divergence.  ``_run`` gets fuel for one step per
    configuration (thread state, and contents of the registers the thread
    names that the family holds as 0 or 1), so a run still going then diverges."""
    decode, slots = _decoder(thread.nodes.__getitem__, family)
    named = {node.action.focus for node in thread.nodes if type(getattr(node, "action", None)) is RegisterAction}
    held = sum(family.get(focus) in (RegisterContent.ZERO, RegisterContent.ONE) for focus in named)
    outcome, _, bits = _run(decode, thread.root, 0, len(thread.nodes) << held)
    return _family(family, slots, bits) if outcome is Outcome.TERMINATED else {}


def abstract_tau(thread: RegularThread) -> RegularThread:
    """Conceal internal steps; a state with only endless internal steps is Dead.

    Every edge, and the root, goes to the landing of its chain of tau
    states (``threads._chain_ends``), and an endless chain to one extra
    Dead leaf; no tau state stays reachable, so ``_quotient`` drops them.
    """
    n = len(thread.nodes)
    kinds, label, on_true, on_false = _arrays(thread.nodes + (Dead(),))  # state s has label s
    ends = _chain_ends(on_true, [s for s, kind in enumerate(kinds) if kind is TAU], n)
    land = [n if end < 0 else end for end in ends] + [n]
    redirect = [land[s] for s in on_true], [land[s] for s in on_false]
    return _quotient(kinds, label, *redirect, land[thread.root])


# ---------------------------------------------------------------------------
# small-step interpreter


def unfold(t: InstructionSequenceTerm) -> Iterator[PrimitiveInstruction]:
    """The instruction stream of a term: its finite part, then its repeating
    part forever; anything following an infinite part is never produced."""
    prefix, period = _flat(t)
    yield from prefix
    while period:
        yield from period


def simulate(t: InstructionSequenceTerm, family: RegisterFamily, fuel: int) -> tuple[Outcome, RegisterFamily]:
    """Run the term directly on the family, a step per unit of fuel.

    The stored positions are thread states, each decoded when the run first
    reads it: ``!`` is Stop, ``#0`` Dead, any other jump an internal step,
    an instruction that acts a branch to its two exits (``syntax._EXITS``),
    and past a finite end lies one Dead state.  A position q past the m + k
    stored ones reads position m + (q - m) mod k of the repeating part, so a
    long jump unfolds nothing, and a register is read only once the run
    reaches it.  ``_run`` runs only the fuel modulo the cycle once a
    configuration (position and bits) comes back.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    prefix, period = _flat(t)
    m, k, total = len(prefix), len(period), len(prefix) + len(period)

    def at(q: int) -> int:  # the stored position that position q reads, or total past a finite end
        return q if q < total else m + (q - m) % k if k else total

    def state(q: int) -> Node:
        instr = prefix[q] if q < m else period[q - m] if q < total else Jump(0)  # past the end: inaction
        kind = type(instr)
        if kind is Halt:
            return Stop()
        if kind is Jump:
            return Branch(TAU, at(q + instr.offset), at(q + instr.offset)) if instr.offset else Dead()
        yes, no = _EXITS[kind]
        return Branch(instr.basic, at(q + yes), at(q + no))

    decode, slots = _decoder(state, family, abstract="cannot execute abstract action {}")
    outcome, _, bits = _run(decode, 0, 0, fuel)
    return outcome, _family(family, slots, bits)
