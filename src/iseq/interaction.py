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

``simulate`` is a small-step interpreter over the flat instruction
sequence (``syntax.flatten``), read modulo its period past the stored
positions, used to cross-check the algebraic route (apply after extract).
``apply`` and ``simulate`` step over thread states and flat positions in
``_run``, the one cycle detector.  ``_register_step`` is the one rule for a
register action's reply; ``use`` looks the focus up first, since there an
unknown focus stays observable.  Each runs on the part of the family that
the program's actions name (``_named``) and passes the rest through
untouched, so unnamed registers cost nothing.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator

from .registers import RegisterFamily
from .syntax import (
    Halt,
    InstructionSequenceTerm,
    Jump,
    Plain,
    PosTest,
    PrimitiveInstruction,
    RegisterAction,
    RegisterContent,
    _flat,
)
from .threads import TAU, Branch, Dead, RegularThread, Stop, _arrays, _chain_ends, _quotient


def _named(actions: Iterable, family: RegisterFamily) -> RegisterFamily:
    """The part of ``family`` under the foci of the register actions among
    ``actions``, in the order first named."""
    named = {}
    for action in actions:
        if type(action) is RegisterAction and action.focus in family:
            named[action.focus] = family[action.focus]
    return named


def _register_step(
    action, fam: RegisterFamily, abstract: str = "abstract action {} cannot interact with registers"
) -> bool | None:
    """Carry out ``action`` on ``fam``: the reply, or None where the run
    sticks, on a focus ``fam`` does not name or an inoperative register.
    An abstract action raises ValueError with ``abstract`` naming it."""
    if type(action) is not RegisterAction:
        raise ValueError(abstract.format(action))
    content = fam.get(action.focus, RegisterContent.INOPERATIVE)
    if content is RegisterContent.INOPERATIVE:
        return None
    bit = content is RegisterContent.ONE
    fam[action.focus] = RegisterContent.ONE if action.effect(bit) else RegisterContent.ZERO
    return action.reply(bit)


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


def use(thread: RegularThread, family: RegisterFamily) -> RegularThread:
    """Product of the thread with the family it runs against, written into
    the arrays of :mod:`threads`: one state per (thread state, contents of
    the named registers in ``_named``'s order), numbered as found."""
    named = _named((node.action for node in thread.nodes if type(node) is Branch), family)
    foci = tuple(named)
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
        if type(node) is not Branch:  # Stop or Dead
            rows.append((1 if type(node) is Stop else 2, s, s))
            continue
        action = node.action
        if action is TAU:
            succ = state_id(node.on_true, contents)
            rows.append((0, succ, succ))
            continue
        if type(action) is RegisterAction and action.focus not in named:
            rows.append((len(kinds), state_id(node.on_true, contents), state_id(node.on_false, contents)))
            kinds.append(action)
            continue
        fam = dict(zip(foci, contents))
        reply = _register_step(action, fam)
        if reply is None:
            rows.append((2, s, s))  # Dead: an inoperative register
            continue
        succ = state_id(node.on_true if reply else node.on_false, tuple(fam.values()))
        rows.append((0, succ, succ))
    return _quotient(kinds, *zip(*rows), 0)


def apply(thread: RegularThread, family: RegisterFamily) -> RegisterFamily:
    """Final family after running the thread on it; empty on inaction or
    divergence.  ``_run`` gets fuel for one step per configuration (thread
    state and named contents), so a run still going then diverges."""
    nodes = thread.nodes
    fam = _named((node.action for node in nodes if type(node) is Branch), family)

    def step(state: int, fam: RegisterFamily) -> int | Outcome:
        node = nodes[state]
        if type(node) is not Branch:  # Stop or Dead
            return Outcome.TERMINATED if type(node) is Stop else Outcome.INACTIVE
        if node.action is TAU:
            return node.on_true
        reply = _register_step(node.action, fam)
        if reply is None:
            return Outcome.INACTIVE
        return node.on_true if reply else node.on_false

    if _run(step, thread.root, fam, len(nodes) << len(fam)) is Outcome.TERMINATED:
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
    """Cursor-over-expansion execution without any algebraic machinery.

    Every executed primitive instruction consumes one unit of fuel.  An
    unknown focus or an inoperative register makes execution stick, which
    reports as inaction.  A position q past the m + k stored ones reads
    position m + (q - m) mod k of the repeating part, so a long jump
    unfolds nothing.  ``_run`` runs only the fuel modulo the cycle once a
    configuration (position and named contents) comes back.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    prefix, period = _flat(t)
    seq = prefix + period
    m, total, k = len(prefix), len(seq), len(period)
    fam = _named((getattr(instr, "basic", None) for instr in seq), family)

    def step(q: int, fam: RegisterFamily) -> int | Outcome:
        if q >= total:  # read past the end only when the fuel allows a step
            if not k:
                return Outcome.INACTIVE
            q = m + (q - m) % k
        instr = seq[q]
        kind = type(instr)
        if kind is Halt:
            return Outcome.TERMINATED
        if kind is Jump:
            return q + instr.offset if instr.offset else Outcome.INACTIVE
        reply = _register_step(instr.basic, fam, "cannot execute abstract action {}")
        if reply is None:
            return Outcome.INACTIVE
        if kind is Plain:
            return q + 1
        if kind is PosTest:
            return q + (1 if reply else 2)
        return q + (2 if reply else 1)

    return _run(step, 0, fam, fuel), {**family, **fam}
