"""Thread extraction and the behavioural equivalence/congruence deciders.

Extraction builds the behaviour graph over the positions of the second
canonical form: a plain instruction performs its action and continues, a
test branches between the next position and the one after, a 0-jump and any
position past the end of a finite sequence are inactive, termination stops,
and positions of the repeating part wrap around.  Chained jumps were removed
by normalization, so a jump position is an alias for its target.

Behavioural congruence quantifies over every jump-in entry and every
termination padding; both quantifiers reduce to finitely many checks (see
``behaviourally_congruent``).
"""

from __future__ import annotations

from .canonical import (
    CanonicalSeq,
    normalize_ultimately_periodic,
    pad_with_halts,
    to_second_canonical,
)
from .syntax import (
    Halt,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    Plain,
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
    bisimulation_classes,
    minimize,
    threads_equal,
)

_DEAD = 0
_STOP = 1


def _position_nodes(canon: CanonicalSeq) -> tuple[list[Node], list[int]]:
    """Behaviour nodes for a canonical sequence.

    Returns (nodes, entry) where nodes[0] is Dead, nodes[1] is Stop and
    entry[p-1] is the node index behaving like execution from position p,
    for every stored position p (1-based).  Works on the flat
    ``prefix + period`` tuple by index: the entry of every stored position
    is found once, and each instruction's successors are entries of the
    next one or two positions, wrapping into the repeating part.
    """
    seq = canon.prefix + canon.period
    m = len(canon.prefix)
    total = len(seq)
    k = total - m
    dead, stop = Dead(), Stop()
    base = 2

    def entry_of(q: int) -> int:
        """Node index behaving like execution from 0-based index ``q``."""
        guard = 0
        while True:
            instr = seq[q]
            if type(instr) is Halt:
                return _STOP
            if type(instr) is not Jump:
                return base + q
            if instr.offset == 0:
                return _DEAD
            q += instr.offset
            if q >= total:
                if not k:
                    return _DEAD  # past the end of a finite sequence
                q = m + (q - m) % k
            guard += 1
            if guard > total + 1:  # cannot happen on canonical input
                return _DEAD

    entry = [entry_of(q) for q in range(total)]
    # entries of the two positions after the last stored one
    after = entry + ([entry[m], entry[m + (1 % k)]] if k else [_DEAD, _DEAD])
    nodes: list[Node] = [dead, stop]
    for q, instr in enumerate(seq):
        kind = type(instr)
        if kind is Plain:
            nodes.append(Branch(instr.basic, after[q + 1], after[q + 1]))
        elif kind is PosTest:
            nodes.append(Branch(instr.basic, after[q + 1], after[q + 2]))
        elif kind is NegTest:
            nodes.append(Branch(instr.basic, after[q + 2], after[q + 1]))
        elif kind is Halt:
            nodes.append(stop)
        else:
            nodes.append(dead)  # jump position; aliased through its entry
    return nodes, entry


def extract(t: InstructionSequenceTerm) -> RegularThread:
    """The regular thread produced by executing the instruction sequence."""
    canon = to_second_canonical(t)
    nodes, entry = _position_nodes(canon)
    return minimize(RegularThread(tuple(nodes), entry[0]))


def behaviourally_equivalent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    return threads_equal(extract(t), extract(t2))


# ---------------------------------------------------------------------------
# behavioural congruence


def _max_jump(canon: CanonicalSeq) -> int:
    offsets = [i.offset for i in canon.prefix + canon.period if isinstance(i, Jump)]
    return max(offsets, default=0)


def _entry_classes(a: CanonicalSeq, b: CanonicalSeq) -> tuple[list[int], list[int]]:
    """Bisimilarity classes of every entry position of both sequences."""
    nodes_a, entry_a = _position_nodes(a)
    nodes_b, entry_b = _position_nodes(b)
    offset = len(nodes_a)
    union: list[Node] = list(nodes_a)
    for node in nodes_b:
        if isinstance(node, Branch):
            node = Branch(node.action, node.on_true + offset, node.on_false + offset)
        union.append(node)
    classes = bisimulation_classes(union)
    return (
        [classes[i] for i in entry_a],
        [classes[i + offset] for i in entry_b],
    )


def _finite_positions_agree(a: CanonicalSeq, b: CanonicalSeq) -> bool:
    cls_a, cls_b = _entry_classes(a, b)
    return cls_a == cls_b  # equal lengths: position count matches


def _periodic_positions_agree(a: CanonicalSeq, b: CanonicalSeq) -> bool:
    cls_a, cls_b = _entry_classes(a, b)
    m_a, m_b = len(a.prefix), len(b.prefix)
    seq_a = normalize_ultimately_periodic(cls_a[:m_a], cls_a[m_a:])
    seq_b = normalize_ultimately_periodic(cls_b[:m_b], cls_b[m_b:])
    return seq_a == seq_b


def behaviourally_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    """Equal behaviour under every jump-in entry and termination padding.

    Entering at every jump distance amounts to comparing the threads from
    every position of both sequences (plus the trivially equal inactive
    entry), so the entry quantifier is decided exactly, position by
    position.  For the padding quantifier: appending terminations to a
    sequence with a repeating part changes nothing; two finite sequences of
    different lengths always differ at the entry just past the shorter
    padded end; and for equal lengths the comparison is stable once the
    padding exceeds every jump's reach past the end, so paddings up to
    max(largest jump literal, 2) decide all of them.
    """
    a = to_second_canonical(t)
    b = to_second_canonical(t2)
    if a.is_finite != b.is_finite:
        return False
    if not a.is_finite:
        return _periodic_positions_agree(a, b)
    if len(a.prefix) != len(b.prefix):
        return False
    reach = max(_max_jump(a), _max_jump(b), 2)
    for padding in range(reach + 1):
        if not _finite_positions_agree(pad_with_halts(a, padding), pad_with_halts(b, padding)):
            return False
    return True


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
