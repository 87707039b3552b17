"""Interaction of threads with Boolean register families.

``use`` is the effect of a family on a thread: actions on registers the
family knows are carried out and leave an internal tau step behind, actions
on unknown registers stay observable, and touching an inoperative register
deadlocks.  ``apply`` is the effect of a thread on a family: the
deterministic run of the thread over the family, returning the final family
on termination and the empty family on inaction, divergence, an unknown
focus or an inoperative register.  ``abstract_tau`` conceals internal steps.

``simulate`` is an independent small-step interpreter over the lazily
unfolded instruction stream, used as a cross-checking oracle for the
algebraic route (apply after extract).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Iterator

from .registers import RegisterFamily, family_key
from .syntax import (
    AbstractAction,
    Concat,
    Halt,
    InstructionSequenceTerm,
    Jump,
    Plain,
    PosTest,
    PrimitiveInstruction,
    RegisterAction,
    RegisterContent,
    Repeat,
)
from .threads import TAU, Branch, Dead, Node, RegularThread, Stop, minimize


def use(thread: RegularThread, family: RegisterFamily) -> RegularThread:
    """Product of the thread with the family it runs against."""
    start = (thread.root, family_key(family))
    index: dict[tuple, int] = {start: 0}
    queue = deque([start])
    nodes: list[Node] = []

    def state_id(state: int, fam_key: tuple) -> int:
        key = (state, fam_key)
        if key not in index:
            index[key] = len(index)
            queue.append(key)
        return index[key]

    while queue:
        state, fam_key = queue.popleft()
        node = thread.node(state)
        if isinstance(node, Stop):
            nodes.append(Stop())
            continue
        if isinstance(node, Dead):
            nodes.append(Dead())
            continue
        action = node.action
        if action is TAU:
            succ = state_id(node.on_true, fam_key)
            nodes.append(Branch(TAU, succ, succ))
            continue
        if isinstance(action, AbstractAction):
            raise ValueError(f"abstract action {action} cannot interact with registers")
        assert isinstance(action, RegisterAction)
        fam = dict(fam_key)
        if action.focus not in fam:
            on_true = state_id(node.on_true, fam_key)
            on_false = state_id(node.on_false, fam_key)
            nodes.append(Branch(action, on_true, on_false))
            continue
        content = fam[action.focus]
        if content is RegisterContent.INOPERATIVE:
            nodes.append(Dead())
            continue
        bit = content is RegisterContent.ONE
        fam[action.focus] = (
            RegisterContent.ONE if action.effect(bit) else RegisterContent.ZERO
        )
        succ_state = node.on_true if action.reply(bit) else node.on_false
        succ = state_id(succ_state, family_key(fam))
        nodes.append(Branch(TAU, succ, succ))
    return minimize(RegularThread(tuple(nodes), 0))


def apply(thread: RegularThread, family: RegisterFamily) -> RegisterFamily:
    """Final family after running the thread on it; empty on any failure."""
    state = thread.root
    fam = dict(family)
    seen: set[tuple] = set()
    while True:
        key = (state, tuple(fam.values()))  # the run never adds a register
        if key in seen:
            return {}  # divergence: every projection ends inactive
        seen.add(key)
        node = thread.node(state)
        if isinstance(node, Stop):
            return fam
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
        content = fam[action.focus]
        if content is RegisterContent.INOPERATIVE:
            return {}
        bit = content is RegisterContent.ONE
        fam[action.focus] = (
            RegisterContent.ONE if action.effect(bit) else RegisterContent.ZERO
        )
        state = node.on_true if action.reply(bit) else node.on_false


def abstract_tau(thread: RegularThread) -> RegularThread:
    """Conceal internal steps; a state with only endless internal steps is Dead."""

    def resolve(state: int) -> int | None:
        seen = set()
        while True:
            node = thread.node(state)
            if not (isinstance(node, Branch) and node.action is TAU):
                return state
            if state in seen:
                return None  # tau cycle: inactive
            seen.add(state)
            state = node.on_true

    nodes: list[Node] = []
    index: dict[int | None, int] = {}
    queue: deque[int | None] = deque()

    def state_id(resolved: int | None) -> int:
        if resolved not in index:
            index[resolved] = len(index)
            queue.append(resolved)
        return index[resolved]

    root = state_id(resolve(thread.root))
    while queue:
        resolved = queue.popleft()
        if resolved is None:
            nodes.append(Dead())
            continue
        node = thread.node(resolved)
        if isinstance(node, Branch):
            on_true = state_id(resolve(node.on_true))
            on_false = state_id(resolve(node.on_false))
            nodes.append(Branch(node.action, on_true, on_false))
        else:
            nodes.append(node)
    return minimize(RegularThread(tuple(nodes), root))


# ---------------------------------------------------------------------------
# independent small-step interpreter


class Outcome(enum.Enum):
    TERMINATED = "terminated"
    INACTIVE = "inactive"
    FUEL_EXHAUSTED = "fuel-exhausted"


def unfold(t: InstructionSequenceTerm) -> Iterator[PrimitiveInstruction]:
    """Lazy expansion of a term into its instruction stream.

    Anything following an infinite part is unreachable and never produced.
    A repetition re-enqueues itself after its body, so the stream never
    ends once one is reached; an explicit stack avoids nested generators.
    """
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Concat):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Repeat):
            stack.append(node)
            stack.append(node.body)
        else:
            yield node


class _Stream:
    """Random access over a possibly infinite instruction stream."""

    def __init__(self, t: InstructionSequenceTerm):
        self._iter = unfold(t)
        self._cache: list[PrimitiveInstruction] = []
        self._done = False

    def at(self, pos: int) -> PrimitiveInstruction | None:
        """Instruction at 1-based position ``pos``; None past a finite end."""
        while not self._done and len(self._cache) < pos:
            try:
                self._cache.append(next(self._iter))
            except StopIteration:
                self._done = True
        if len(self._cache) < pos:
            return None
        return self._cache[pos - 1]


def simulate(
    t: InstructionSequenceTerm, family: RegisterFamily, fuel: int
) -> tuple[Outcome, RegisterFamily]:
    """Cursor-over-expansion execution without any algebraic machinery.

    Every executed primitive instruction consumes one unit of fuel.  An
    unknown focus or an inoperative register makes execution stick, which
    reports as inaction.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    stream = _Stream(t)
    fam = dict(family)
    pos = 1
    while True:
        if fuel <= 0:
            return Outcome.FUEL_EXHAUSTED, fam
        instr = stream.at(pos)
        if instr is None:
            return Outcome.INACTIVE, fam
        fuel -= 1
        if isinstance(instr, Halt):
            return Outcome.TERMINATED, fam
        if isinstance(instr, Jump):
            if instr.offset == 0:
                return Outcome.INACTIVE, fam
            pos += instr.offset
            continue
        basic = instr.basic
        if not isinstance(basic, RegisterAction):
            raise ValueError(f"cannot execute abstract action {basic}")
        if basic.focus not in fam:
            return Outcome.INACTIVE, fam
        content = fam[basic.focus]
        if content is RegisterContent.INOPERATIVE:
            return Outcome.INACTIVE, fam
        bit = content is RegisterContent.ONE
        fam[basic.focus] = (
            RegisterContent.ONE if basic.effect(bit) else RegisterContent.ZERO
        )
        reply = basic.reply(bit)
        if isinstance(instr, Plain):
            pos += 1
        elif isinstance(instr, PosTest):
            pos += 1 if reply else 2
        else:
            pos += 2 if reply else 1
