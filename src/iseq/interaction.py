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

``_stepper`` is the one step rule, what a thread state does with a family.
``use`` calls it at every product state but an action on a register the
family does not name, which stays observable; ``apply`` and ``simulate``
step through it in ``_run``, the one cycle detector.  ``simulate`` runs a
term directly, its flat positions (``syntax.flatten``) read as thread
states, to cross-check the algebraic route (apply after extract).  Each
runs on the part of the family that the program's actions name
(``_named``) and passes the rest through untouched, so unnamed registers
cost nothing.
"""

from __future__ import annotations

import enum
import functools
from typing import Callable, Iterable, Iterator

from .registers import RegisterFamily
from .syntax import (
    Halt,
    InstructionSequenceTerm,
    Jump,
    PrimitiveInstruction,
    RegisterAction,
    RegisterContent,
    _EXITS,
    _TRUTH,
    _flat,
)
from .threads import TAU, Branch, Dead, Node, RegularThread, Stop, _arrays, _chain_ends, _quotient


def _named(actions: Iterable, family: RegisterFamily) -> RegisterFamily:
    """The part of ``family`` under the foci of the register actions among
    ``actions``, in the order first named."""
    named = {}
    for action in actions:
        if type(action) is RegisterAction and action.focus in family:
            named[action.focus] = family[action.focus]
    return named


class Outcome(enum.Enum):
    TERMINATED = "terminated"
    INACTIVE = "inactive"
    FUEL_EXHAUSTED = "fuel-exhausted"


def _run(step: Callable[[int, RegisterFamily], int | Outcome], q: int, fam: RegisterFamily, fuel: int) -> Outcome:
    """The Outcome that ``step`` returns within ``fuel`` steps from (``q``,
    ``fam``), else FUEL_EXHAUSTED; a step changes ``fam`` in place and
    returns the next ``q`` or an Outcome.  A configuration that comes back
    makes the run periodic: Brent's cycle finding compares each with the one
    at the last power-of-two step, and a match L steps later leaves only the
    fuel modulo L to run, so the work is bounded by the configurations,
    whatever the fuel, and the memory holds two of them."""
    mark_q, mark, since, power = -1, None, 0, 1  # the configuration at the last power of two
    while fuel > 0:
        if q == mark_q and fam == mark:
            fuel %= since
            if not fuel:
                break
        elif since == power:
            mark_q, mark, since, power = q, dict(fam), 0, 2 * power
        since += 1
        fuel -= 1
        q = step(q, fam)
        if type(q) is Outcome:
            return q
    return Outcome.FUEL_EXHAUSTED


def _stepper(
    node_of: Callable[[int], Node], abstract: str = "abstract action {} cannot interact with registers"
) -> Callable[[int, RegisterFamily], int | Outcome]:
    """The step ``_run`` takes from state q, whose node is ``node_of(q)``,
    changing the family in place: Stop gives TERMINATED and Dead INACTIVE,
    an internal step its successor, and an action ``f.m/n`` on a register
    holding b sets it to n(b) and gives the true successor where m(b)
    holds, else the false one.  An action on a focus the family does
    not name or on an inoperative register sticks, as INACTIVE; an
    abstract action raises ValueError with ``abstract`` naming it."""

    def step(q: int, fam: RegisterFamily) -> int | Outcome:
        node = node_of(q)
        if type(node) is not Branch:  # Stop or Dead
            return Outcome.TERMINATED if type(node) is Stop else Outcome.INACTIVE
        action = node.action
        if action is TAU:
            return node.on_true
        if type(action) is not RegisterAction:
            raise ValueError(abstract.format(action))
        content = fam.get(action.focus, RegisterContent.INOPERATIVE)
        if content is RegisterContent.INOPERATIVE:
            return Outcome.INACTIVE
        bit = content is RegisterContent.ONE  # read _TRUTH directly: UnaryBoolFunc.__call__ is a Python call
        fam[action.focus] = RegisterContent.ONE if _TRUTH[action.effect._value_][bit] else RegisterContent.ZERO
        return node.on_true if _TRUTH[action.reply._value_][bit] else node.on_false

    return step


def use(thread: RegularThread, family: RegisterFamily) -> RegularThread:
    """Product of the thread with the family it runs against, written into
    the arrays of :mod:`threads`: one state per (thread state, contents of
    the named registers in ``_named``'s order), numbered as found."""
    named = _named((node.action for node in thread.nodes if type(node) is Branch), family)
    foci = tuple(named)
    step = _stepper(thread.nodes.__getitem__)
    kinds = [TAU, Stop, Dead]  # labels 0, 1 and 2, then one per state acting on an unknown register
    found = [(thread.root, tuple(named.values()))]
    index = {found[0]: 0}
    rows = []  # (label, on_true, on_false) per product state

    def state_id(state: int, contents: tuple) -> int:
        key = (state, contents)
        if key not in index:
            index[key] = len(found)
            found.append(key)
        return index[key]

    for s, (state, contents) in enumerate(found):  # the list grows while it is walked: a queue
        node = thread.nodes[state]
        action = getattr(node, "action", None)
        if type(action) is RegisterAction and action.focus not in named:
            rows.append((len(kinds), state_id(node.on_true, contents), state_id(node.on_false, contents)))
            kinds.append(action)
            continue
        fam = dict(zip(foci, contents))
        succ = step(state, fam)
        if type(succ) is Outcome:
            rows.append((1 if succ is Outcome.TERMINATED else 2, s, s))  # Stop or Dead
        else:
            succ = state_id(succ, tuple(fam.values()))
            rows.append((0, succ, succ))
    return _quotient(kinds, *zip(*rows), 0)


def apply(thread: RegularThread, family: RegisterFamily) -> RegisterFamily:
    """Final family after running the thread on it by the step rule; empty
    on inaction or divergence.  ``_run`` gets fuel for one step per
    configuration (thread state and named contents), so a run still going
    then diverges."""
    fam = _named((node.action for node in thread.nodes if type(node) is Branch), family)
    if _run(_stepper(thread.nodes.__getitem__), thread.root, fam, len(thread.nodes) << len(fam)) is Outcome.TERMINATED:
        return {**family, **fam}
    return {}


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

    The stored positions are thread states, each built when the run first
    reads it and kept by ``functools.cache``, and ``_stepper`` steps through
    them: ``!`` is Stop, ``#0`` Dead, any other jump an internal step, an
    instruction that acts a branch to its two exits (``syntax._EXITS``), and
    past a finite end lies one Dead state.  A position q past the m + k
    stored ones reads position m + (q - m) mod k of the repeating part, so a
    long jump unfolds nothing.  ``_run`` runs only the fuel modulo the cycle
    once a configuration (position and named contents) comes back.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    prefix, period = _flat(t)
    seq = prefix + period
    m, total, k = len(prefix), len(seq), len(period)
    fam = _named((getattr(instr, "basic", None) for instr in seq), family)

    def at(q: int) -> int:  # the stored position that position q reads, or total past a finite end
        return q if q < total else m + (q - m) % k if k else total

    def state(q: int) -> Node:
        instr = seq[q] if q < total else Jump(0)  # past a finite end: inaction, as at #0
        kind = type(instr)
        if kind is Halt:
            return Stop()
        if kind is Jump:
            return Branch(TAU, at(q + instr.offset), at(q + instr.offset)) if instr.offset else Dead()
        yes, no = _EXITS[kind]
        return Branch(instr.basic, at(q + yes), at(q + no))

    return _run(_stepper(functools.cache(state), "cannot execute abstract action {}"), 0, fam, fuel), {**family, **fam}
