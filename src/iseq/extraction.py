"""Thread extraction and the behavioural equivalence/congruence deciders.

Extraction builds the behaviour graph over the positions of the second
canonical form: a plain instruction performs its action and continues, a
test branches between the next position and the one after, a 0-jump and any
position past the end of a finite sequence are inactive, termination stops,
and positions of the repeating part wrap around.  Chained jumps were removed
by normalization, so a jump position is an alias for its target.

The graph is written straight into the int arrays of the refinement kernel
in :mod:`threads` (a label and two successors per state, leaves as
self-loops), one state per instruction that acts and shared leaves for
Stop and Dead.  Each decider writes both sequences into one set of arrays
and runs exactly one refinement; ``extract`` builds nodes only for the
minimized quotient.

Behavioural congruence quantifies over every jump-in entry and every
termination padding.  Entries are positions, so the first quantifier is a
comparison position by position.  The paddings of finite sequences are all
decided by one refinement in which each target past the end carries a label
of its own (see ``behaviourally_congruent``).
"""

from __future__ import annotations

from .canonical import CanonicalSeq, normalize_ultimately_periodic, to_second_canonical
from .syntax import (
    Halt,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    PosTest,
    PrimitiveInstruction,
    concat_all,
)
from .threads import (
    TAU,
    Branch,
    Dead,
    Node,
    RegularThread,
    Stop,
    _classes,
    _quotient,
    _reachable,
)

_DEAD = 0  # state and label of the shared Dead leaf
_STOP = 1  # state and label of the shared Stop leaf


def _graph() -> tuple[dict, list[int], list[int], list[int]]:
    """Empty position graph: (kinds, label, on_true, on_false) holding only
    the shared leaves; ``kinds`` interns what each label stands for."""
    return {Dead: _DEAD, Stop: _STOP}, [_DEAD, _STOP], [_DEAD, _STOP], [_DEAD, _STOP]


def _write(canon: CanonicalSeq, graph: tuple, ends: dict | None = None) -> list[int]:
    """Append the position graph of ``canon``; the state of each position.

    Each instruction that acts gets a state, numbered in position order
    after those the graph holds; a termination is the Stop leaf and a jump
    an alias for the state it leads to.  The state of every stored position
    is found once, and each instruction's successors are the states of the
    next one or two positions, wrapping into the repeating part.  Past the
    end of a finite sequence lies the Dead leaf, or, with ``ends`` given,
    at position m + j a leaf labelled ``("end", j)``, kept in ``ends`` so
    that both sequences of a comparison share it.
    """
    kinds, label, on_true, on_false = graph
    seq = canon.prefix + canon.period
    m = len(canon.prefix)
    total = len(seq)
    k = total - m
    state = []
    for instr in seq:
        kind = type(instr)
        if kind is Halt:
            state.append(_STOP)
        elif kind is Jump:
            state.append(-1)
        else:
            state.append(len(label))
            label.append(kinds.setdefault(instr.basic, len(kinds)))
    # successors are set below, once every position has its state
    on_true.extend(range(len(on_true), len(label)))
    on_false.extend(range(len(on_false), len(label)))

    def target(q: int) -> int:
        """State behaving like execution from 0-based index ``q``."""
        guard = 0
        while True:
            if q >= total:
                if k:
                    q = m + (q - m) % k
                elif ends is None:
                    return _DEAD
                else:
                    j = q - total + 1  # position m + j
                    if j not in ends:
                        ends[j] = len(label)
                        label.append(kinds.setdefault(("end", j), len(kinds)))
                        on_true.append(ends[j])
                        on_false.append(ends[j])
                    return ends[j]
            s = state[q]
            if s >= 0:
                return s
            if not seq[q].offset:
                return _DEAD
            q += seq[q].offset
            guard += 1
            if guard > total + 1:  # a cycle of jumps; not on canonical input
                return _DEAD

    entry = [s if s >= 0 else target(q) for q, s in enumerate(state)]
    after = entry + [target(total), target(total + 1)]
    for q, s in enumerate(state):
        if s > _STOP:
            kind = type(seq[q])
            if kind is PosTest:
                on_true[s], on_false[s] = after[q + 1], after[q + 2]
            elif kind is NegTest:
                on_true[s], on_false[s] = after[q + 2], after[q + 1]
            else:
                on_true[s] = on_false[s] = after[q + 1]
    return entry


def _position_nodes(canon: CanonicalSeq) -> tuple[list[Node], list[int]]:
    """The position graph of ``canon`` as nodes, one per stored position.

    Returns (nodes, entry) where nodes[0] is Dead, nodes[1] is Stop,
    nodes[1 + p] is the node of position p (Stop for a termination, Dead
    for a jump, which its entry aliases) and entry[p-1] the node behaving
    like execution from position p: the layout of the reference extraction
    in ``tests/oracles.py``, which the deciders themselves never build.
    """
    graph = _graph()
    entry = _write(canon, graph)
    kinds, label, on_true, on_false = graph
    seq = canon.prefix + canon.period
    kind_of = list(kinds)
    node_of = [_DEAD, _STOP] + [2 + q for q, instr in enumerate(seq) if type(instr) not in (Halt, Jump)]
    nodes: list[Node] = [Dead(), Stop()] + [
        Stop() if type(instr) is Halt else Dead() if type(instr) is Jump
        else Branch(kind_of[label[s]], node_of[on_true[s]], node_of[on_false[s]])
        for instr, s in zip(seq, entry)
    ]
    return nodes, [node_of[s] for s in entry]


def extract(t: InstructionSequenceTerm) -> RegularThread:
    """The regular thread produced by executing the instruction sequence."""
    graph = _graph()
    root = _write(to_second_canonical(t), graph)[0]
    kinds, *arrays = graph
    return _quotient(list(kinds), *arrays, root)


def behaviourally_equivalent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    """Bisimilarity of the extracted threads, decided by one refinement of
    the states reachable from the two roots."""
    graph = _graph()
    root = _write(to_second_canonical(t), graph)[0]
    root2 = _write(to_second_canonical(t2), graph)[0]
    index, *arrays = _reachable(*graph[1:], (root, root2))
    classes = _classes(*arrays)
    return classes[index[root]] == classes[index[root2]]


def behaviourally_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    """Equal behaviour under every jump-in entry and termination padding.

    Entering at every jump distance amounts to comparing the threads from
    every position of both sequences (plus the trivially equal inactive
    entry), so the entry quantifier is decided position by position, over
    one refinement of the union of both position graphs.

    Paddings: appending terminations to a sequence with a repeating part
    changes nothing, and two finite sequences of different lengths differ
    at the entry just past the shorter padded end.  For two finite sequences
    of equal length m, padding with p terminations turns position m + j
    into Stop for j <= p and leaves it inactive beyond; the padded positions
    themselves agree on both sides.  So give each target m + j its own leaf
    label ``end j`` and refine once.  For a padding p, relabelling ``end j``
    as Stop when j <= p and as Dead otherwise maps this labelled graph onto
    the padded one, so labelled bisimilarity implies bisimilarity under
    every padding.  Conversely, threads are deterministic, so two states
    that are not bisimilar under the labels reach, along one reply path, a
    first pair of states with different labels, and some padding separates
    every such pair while keeping the path: an action against a leaf under
    any p; Stop against Dead under any p; Stop against ``end j`` under
    p = 0; Dead against ``end j`` under p = j; and ``end i`` against
    ``end j`` with i < j under p = i.  Hence labelled bisimilarity is
    exactly bisimilarity under all paddings at once.
    """
    a = to_second_canonical(t)
    b = to_second_canonical(t2)
    if a.is_finite != b.is_finite:
        return False
    if a.is_finite and len(a.prefix) != len(b.prefix):
        return False
    graph = _graph()
    ends: dict[int, int] = {}
    entry_a = _write(a, graph, ends)
    entry_b = _write(b, graph, ends)
    classes = _classes(*graph[1:])
    cls_a = [classes[s] for s in entry_a]
    cls_b = [classes[s] for s in entry_b]
    if a.is_finite:
        return cls_a == cls_b
    m_a, m_b = len(a.prefix), len(b.prefix)
    return normalize_ultimately_periodic(cls_a[:m_a], cls_a[m_a:]) == normalize_ultimately_periodic(
        cls_b[:m_b], cls_b[m_b:]
    )


# ---------------------------------------------------------------------------
# single-repetition synthesis


def synthesize_repetition(t: InstructionSequenceTerm) -> InstructionSequenceTerm:
    """Repetition-free ``s`` with ``t`` behaviourally equivalent to ``s*``.

    Each state of the minimized extracted thread compiles to a fixed-width
    block of three instructions; jump targets are taken modulo the total
    length, which the repetition turns into unrestricted state-to-state
    jumps.
    """
    thread = extract(t)
    width = 3
    total = width * len(thread.nodes)

    def jump_to(target_state: int, source_pos: int) -> Jump:
        target_pos = width * target_state + 1
        offset = (target_pos - source_pos) % total
        return Jump(offset if offset else total)

    instrs: list[PrimitiveInstruction] = []
    for state, node in enumerate(thread.nodes):
        start = width * state + 1
        if isinstance(node, Stop):
            instrs.extend([Halt(), Jump(0), Jump(0)])
        elif isinstance(node, Dead):
            instrs.extend([Jump(0), Jump(0), Jump(0)])
        else:
            if node.action is TAU:
                raise ValueError("cannot synthesize an instruction for an internal action")
            instrs.extend(
                [
                    PosTest(node.action),
                    jump_to(node.on_true, start + 1),
                    jump_to(node.on_false, start + 2),
                ]
            )
    return concat_all(instrs)
