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
and the search of :mod:`compute` do: ``_slots`` gives one to each focus the
program names and the family holds as 0 or 1; the family is read on entry
and written back on exit.  ``_decoder`` decodes each thread state once, and
``_run`` is the one step loop: ``apply`` and ``simulate``, which reads a
term's flat positions as thread states to cross-check apply after extract,
run in it, and ``use`` steps through it once per product state.
"""

from __future__ import annotations

import enum
import functools
from itertools import chain
from typing import Callable, Iterable, Iterator

from .registers import RegisterFamily
from .syntax import Focus, Halt, InstructionSequenceTerm, Jump, PrimitiveInstruction, RegisterAction
from .syntax import RegisterContent, _EXITS, _TRUTH, _flat
from .threads import TAU, Branch, Dead, Node, RegularThread, Stop, _arrays, _chain_ends, _quotient


class Outcome(enum.Enum):
    TERMINATED = "terminated"
    INACTIVE = "inactive"
    FUEL_EXHAUSTED = "fuel-exhausted"


def _slots(actions: Iterable, family: RegisterFamily) -> tuple[dict[Focus, int], int]:
    """A slot per focus of the register actions among ``actions`` that
    ``family`` holds as 0 or 1, in the order first named, and the int whose
    bit in each slot is that register's content."""
    slots, bits = {}, 0
    for action in actions:
        if type(action) is RegisterAction and action.focus not in slots:
            content = family.get(action.focus)
            if content is RegisterContent.ZERO or content is RegisterContent.ONE:
                bits |= (content is RegisterContent.ONE) << len(slots)
                slots[action.focus] = len(slots)
    return slots, bits


def _family(family: RegisterFamily, slots: dict[Focus, int], bits: int) -> RegisterFamily:
    """``family`` with each slotted register holding its bit of ``bits``."""
    return {**family, **{focus: RegisterContent("01"[bits >> slot & 1]) for focus, slot in slots.items()}}


def _decoder(
    node_of: Callable, slots: dict, family=None, abstract="abstract action {} cannot interact with registers"
) -> Callable:
    """The decoding of state q, whose node is ``node_of(q)``, kept by
    ``functools.cache``: Stop gives TERMINATED and Dead INACTIVE, an
    internal step its successor, and an action ``f.m/n`` on the register in
    slot s (s, n(0), n(1), successor on m(0), successor on m(1)), as in
    ``compute._decode``.  An action on a register without a slot sticks, as
    INACTIVE, or gives None, observable, where ``family`` is given and does
    not hold it; an abstract action raises ValueError, ``abstract`` naming it."""

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
        slot = slots.get(action.focus)
        if slot is None:
            return None if family is not None and action.focus not in family else Outcome.INACTIVE
        on_0, on_1 = _TRUTH[action.reply._value_]  # read _TRUTH directly: UnaryBoolFunc.__call__ is a Python call
        yes, no = node.on_true, node.on_false
        return (slot, *_TRUTH[action.effect._value_], yes if on_0 else no, yes if on_1 else no)

    return decode


def _run(decode: Callable[[int], Outcome | int | tuple], q: int, bits: int, fuel: int) -> tuple[Outcome, int, int]:
    """The Outcome that ``decode`` gives within ``fuel`` steps from state
    ``q`` with the registers ``bits``, else FUEL_EXHAUSTED, and the state
    and bits the run stops at.  A configuration that comes back makes the
    run periodic: Brent's cycle finding compares each with the one at the
    last power-of-two step, and a match L steps later leaves only the fuel
    modulo L to run, so the work is bounded by the configurations, whatever
    the fuel, and the memory holds two of them."""
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
    slotted registers), numbered as found.  A thread state acting on a
    register the family does not hold keeps its action, under its own label."""
    slots, bits = _slots((getattr(node, "action", None) for node in thread.nodes), family)
    decode = _decoder(thread.nodes.__getitem__, slots, family=family)
    outcomes = (Outcome.FUEL_EXHAUSTED, Outcome.TERMINATED, Outcome.INACTIVE)  # labels 0, 1, 2: tau, Stop, Dead
    labels: dict[int, int] = {}  # thread state -> label, for those whose action stays observable
    found = [(thread.root, bits)]
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
    configuration (thread state and slotted bits), so a run still going
    then diverges."""
    slots, bits = _slots((getattr(node, "action", None) for node in thread.nodes), family)
    decode = _decoder(thread.nodes.__getitem__, slots)
    outcome, _, bits = _run(decode, thread.root, bits, len(thread.nodes) << len(slots))
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


def simulate(
    t: InstructionSequenceTerm, family: RegisterFamily, fuel: int
) -> tuple[Outcome, RegisterFamily]:
    """Run the term directly on the family, a step per unit of fuel.

    The stored positions are thread states, each decoded when the run first
    reads it: ``!`` is Stop, ``#0`` Dead, any other jump an internal step,
    an instruction that acts a branch to its two exits (``syntax._EXITS``),
    and past a finite end lies one Dead state.  A position q past the m + k
    stored ones reads position m + (q - m) mod k of the repeating part, so a
    long jump unfolds nothing.  ``_run`` runs only the fuel modulo the cycle
    once a configuration (position and slotted bits) comes back.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    prefix, period = _flat(t)
    m, k, total = len(prefix), len(period), len(prefix) + len(period)
    distinct = {id(instr): instr for instr in chain(prefix, period)}.values()  # a parse shares equal instructions
    slots, bits = _slots((getattr(instr, "basic", None) for instr in distinct), family)

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

    outcome, _, bits = _run(_decoder(state, slots, abstract="cannot execute abstract action {}"), 0, bits, fuel)
    return outcome, _family(family, slots, bits)
