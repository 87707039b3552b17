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
``use``, ``apply`` and ``simulate`` carry out a register action alike, by
``_register_step``; each handles an unknown focus in its own way.  Each
runs on the part of the family that the program's actions name (``_named``)
and passes the rest through untouched, so unnamed registers cost nothing.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .registers import RegisterFamily
from .syntax import (
    AbstractAction,
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


def _register_step(action: RegisterAction, fam: RegisterFamily) -> bool | None:
    """Carry out ``action`` on ``fam``, which names its focus: the reply,
    or None for an inoperative register."""
    content = fam[action.focus]
    if content is RegisterContent.INOPERATIVE:
        return None
    bit = content is RegisterContent.ONE
    fam[action.focus] = RegisterContent.ONE if action.effect(bit) else RegisterContent.ZERO
    return action.reply(bit)


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
        if isinstance(action, AbstractAction):
            raise ValueError(f"abstract action {action} cannot interact with registers")
        assert isinstance(action, RegisterAction)
        if action.focus not in named:
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
    """Final family after running the thread on it; empty on any failure."""
    state = thread.root
    fam = _named((node.action for node in thread.nodes if isinstance(node, Branch)), family)
    seen: set[tuple] = set()
    while True:
        key = (state, tuple(fam.values()))  # the run never adds a register
        if key in seen:
            return {}  # divergence: every projection ends inactive
        seen.add(key)
        node = thread.node(state)
        if isinstance(node, Stop):
            return {**family, **fam}
        if isinstance(node, Dead):
            return {}
        action = node.action
        if action is TAU:
            state = node.on_true
            continue
        if isinstance(action, AbstractAction):
            raise ValueError(f"abstract action {action} cannot interact with registers")
        assert isinstance(action, RegisterAction)
        if action.focus not in fam:
            return {}
        reply = _register_step(action, fam)
        if reply is None:
            return {}
        state = node.on_true if reply else node.on_false


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


class Outcome(enum.Enum):
    TERMINATED = "terminated"
    INACTIVE = "inactive"
    FUEL_EXHAUSTED = "fuel-exhausted"


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
    unfolds nothing.  A run whose configuration (position and named
    contents) comes back is periodic from there on: Brent's cycle finding
    compares each configuration with the one at the last power-of-two
    step, and a match L steps later leaves only the fuel modulo L to run,
    so the work is bounded by the configurations, whatever the fuel.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    prefix, period = _flat(t)
    seq = prefix + period
    m, total, k = len(prefix), len(seq), len(period)
    fam = _named((getattr(instr, "basic", None) for instr in seq), family)

    def end(outcome: Outcome) -> tuple[Outcome, RegisterFamily]:
        return outcome, {**family, **fam}

    q = 0  # 0-based index of the next instruction
    mark_q, mark, since, power = -1, None, 0, 1  # the configuration at the last power of two
    while True:
        if fuel <= 0:
            return end(Outcome.FUEL_EXHAUSTED)
        if q >= total:
            if not k:
                return end(Outcome.INACTIVE)
            q = m + (q - m) % k
        if q == mark_q and fam == mark:
            fuel %= since
            if not fuel:
                continue
        elif since == power:
            mark_q, mark, since, power = q, dict(fam), 0, 2 * power
        since += 1
        instr = seq[q]
        fuel -= 1
        if isinstance(instr, Halt):
            return end(Outcome.TERMINATED)
        if isinstance(instr, Jump):
            if instr.offset == 0:
                return end(Outcome.INACTIVE)
            q += instr.offset
            continue
        basic = instr.basic
        if not isinstance(basic, RegisterAction):
            raise ValueError(f"cannot execute abstract action {basic}")
        reply = _register_step(basic, fam) if basic.focus in fam else None
        if reply is None:
            return end(Outcome.INACTIVE)
        if isinstance(instr, Plain):
            q += 1
        elif isinstance(instr, PosTest):
            q += 1 if reply else 2
        else:
            q += 2 if reply else 1
