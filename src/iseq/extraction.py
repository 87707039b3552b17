"""Thread extraction and the behavioural equivalence/congruence deciders.

Extraction builds the behaviour graph over the positions of the flat
``(prefix, period)`` parts of a term (``canonical.flatten``), with no
canonical form: a plain instruction performs its action and continues, a
test branches between the next position and the one after, termination
stops, and positions of the repeating part wrap around.  A jump is an
alias for the end of its chain, which one memoized pass finds for every
jump: Dead for a 0-jump, a cycle or a finite end, else the first position
on the chain that is not a jump.

The graph is written straight into the int arrays of :mod:`threads` (a
label and two successors per state, leaves as self-loops), one state per
instruction that acts and shared leaves for Stop and Dead.  Labels are
found by object identity, which a parse shares per distinct instruction,
and by equality once per object.  ``extract`` refines the states reachable
from the root and builds nodes only for the minimized quotient; each
decider writes both sequences into one set of arrays and asks the
union-find kernel whether the states it names are pairwise bisimilar.

Behavioural congruence quantifies over every jump-in entry and every
termination padding.  The entries are the positions, finitely many of
which need comparing, and each target past a finite end carries a label of
its own (see ``behaviourally_congruent``).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .canonical import flatten
from .syntax import (
    Halt,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    PosTest,
    PrimitiveInstruction,
    concat_all,
)
from .threads import TAU, Dead, RegularThread, Stop, _bisimilar, _quotient

_DEAD = 0  # state and label of the shared Dead leaf
_STOP = 1  # state and label of the shared Stop leaf


def _graph() -> tuple[dict, list[int], list[int], list[int]]:
    """Empty position graph: (kinds, label, on_true, on_false) holding only
    the shared leaves; ``kinds`` interns what each label stands for."""
    return {Dead: _DEAD, Stop: _STOP}, [_DEAD, _STOP], [_DEAD, _STOP], [_DEAD, _STOP]


def _write(prefix: Sequence, period: Sequence, graph: tuple, ends: dict | None = None) -> list[int]:
    """Append the position graph of ``prefix + period^omega`` to ``graph``;
    the state of each position.

    Acting positions get states in position order after those the graph
    holds; a termination is the Stop leaf and a jump the state its chain
    ends in.  Past the end of a finite sequence lies the Dead leaf, or, with
    ``ends`` given, at position m + j a leaf labelled ``("end", j)``, kept in
    ``ends`` so that both sequences of a comparison share it.
    """
    kinds, label, on_true, on_false = graph
    seq = prefix + period
    m = len(prefix)
    total = len(seq)
    k = total - m
    by_id: dict[int, int] = {}
    state = []
    acts = []
    for q, instr in enumerate(seq):
        kind = type(instr)
        if kind is Halt:
            state.append(_STOP)
        elif kind is Jump:
            state.append(-1)  # resolved below; -2 while on the chain walked
        else:
            acts.append(q)
            state.append(len(label))
            lab = by_id.get(id(instr.basic))
            if lab is None:
                lab = by_id[id(instr.basic)] = kinds.setdefault(instr.basic, len(kinds))
            label.append(lab)
    # successors are set below, once every position has its state
    on_true.extend(range(len(on_true), len(label)))
    on_false.extend(range(len(on_false), len(label)))

    def target(q: int) -> int:
        """State behaving like execution from 0-based index ``q``; every jump
        on the way gets that state too."""
        chain = []
        while True:
            if q >= total:
                if not k:
                    j = q - total + 1  # position m + j
                    s = _DEAD if ends is None else ends.get(j, -1)
                    if s < 0:  # met first here
                        s = ends[j] = len(label)
                        label.append(kinds.setdefault(("end", j), len(kinds)))
                        on_true.append(s)
                        on_false.append(s)
                    break
                q = m + (q - m) % k
            s = state[q]
            if s != -1:
                break  # a state, or -2: a cycle through this chain
            chain.append(q)
            offset = seq[q].offset
            if not offset:
                break
            state[q] = -2
            q += offset
        s = max(s, _DEAD)  # a 0-jump or a cycle is inactive
        for q in chain:
            state[q] = s
        return s

    for q in range(total):
        if state[q] < 0:
            target(q)
    after = state + [target(total), target(total + 1)]
    for q in acts:
        s = state[q]
        kind = type(seq[q])
        if kind is PosTest:
            on_true[s], on_false[s] = after[q + 1], after[q + 2]
        elif kind is NegTest:
            on_true[s], on_false[s] = after[q + 2], after[q + 1]
        else:
            on_true[s] = on_false[s] = after[q + 1]
    return state


def extract(t: InstructionSequenceTerm) -> RegularThread:
    """The regular thread produced by executing the instruction sequence."""
    graph = _graph()
    root = _write(*flatten(t), graph)[0]
    kinds, *arrays = graph
    return _quotient(list(kinds), *arrays, root)


def behaviourally_equivalent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    """Bisimilarity of the extracted threads, by the union-find kernel."""
    graph = _graph()
    root = _write(*flatten(t), graph)[0]
    root2 = _write(*flatten(t2), graph)[0]
    return _bisimilar(*graph[1:], [(root, root2)])


def behaviourally_congruent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    """Equal behaviour under every jump-in entry and termination padding.

    Entering at every jump distance amounts to comparing the threads from
    every position of both sequences (plus the trivially equal inactive
    entry), so the entry quantifier asks whether both states of each
    position are bisimilar, which the union-find kernel answers at once.

    Paddings: appending terminations to a sequence with a repeating part
    changes nothing, and two finite sequences of different lengths differ
    at the entry just past the shorter padded end.  For two finite sequences
    of equal length m, padding with p terminations turns position m + j
    into Stop for j <= p and leaves it inactive beyond; the padded positions
    themselves agree on both sides.  So give each target m + j its own leaf
    label ``end j`` and compare once.  For a padding p, relabelling ``end j``
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

    No canonical form is needed.  The flat parts of a term spell out the
    sequence it denotes: a finite one position by position, so finiteness
    and length are read off them directly; a periodic one as a prefix of
    length m and a period of length k, so position q >= m behaves like
    position m + (q - m) mod k.  Past M = max(m_a, m_b), the classes of the
    positions of both sequences form a k_a- and a k_b-periodic sequence.
    If these agree on their first k_a + k_b - gcd(k_a, k_b) terms, that
    common word has both periods, so by Fine and Wilf's lemma ("Uniqueness
    theorems for periodic functions", 1965) it has period g = gcd(k_a, k_b).
    It is at least max(k_a, k_b) long and g divides both periods, so both
    sequences are g-periodic, and as they agree on g terms they agree
    everywhere.  Hence positions q < M + k_a + k_b - g suffice; two finite
    sequences of equal length m give k_a = k_b = 0 and their m positions.
    """
    pre_a, per_a = flatten(t)
    pre_b, per_b = flatten(t2)
    if bool(per_a) != bool(per_b):
        return False
    if not per_a and len(pre_a) != len(pre_b):
        return False
    graph = _graph()
    ends: dict[int, int] = {}
    entry_a = _write(pre_a, per_a, graph, ends)
    entry_b = _write(pre_b, per_b, graph, ends)
    m_a, k_a, m_b, k_b = len(pre_a), len(per_a), len(pre_b), len(per_b)
    limit = max(m_a, m_b) + k_a + k_b - gcd(k_a, k_b)
    pairs = [
        (entry_a[q if q < m_a else m_a + (q - m_a) % k_a], entry_b[q if q < m_b else m_b + (q - m_b) % k_b])
        for q in range(limit)
    ]
    return _bisimilar(*graph[1:], pairs)


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
