"""Thread extraction and the behavioural equivalence/congruence deciders.

Extraction builds the behaviour graph over the positions of a term's
second canonical form (``canonical._second``), whose parts are kept in the
term's memo entry: an instruction that acts branches to the positions that
``syntax._EXITS``, the one exit table, gives for a true and a false reply
(a plain instruction continues either way, a test skips one on the reply
it does not want), termination stops, and positions of the repeating part
wrap around.  Structural congruence implies behavioural congruence, so the
second canonical form has the term's threads from every position and its
behavioural verdicts.  It has no chained jumps, so a jump is an alias for
the position its offset names, read directly: the state of a non-jump, a
leaf past a finite end, or Dead for a 0-jump.  ``canonical._second_step``
is the one place where chains are walked.

The graph is written straight into the int arrays of :mod:`threads`, one
state per instruction that acts and shared leaves for Stop and Dead, with
one label per distinct instruction object (a parse shares equal ones).
Past the end of a finite sequence lies a leaf ``("end", j)`` for each
position m + j that execution can run to.  Behavioural congruence reads the
graph as it is (see ``behaviourally_congruent``); ``extract`` and
behavioural equivalence read it through ``_graph``'s view of the labels,
in which every ``end j`` leaf stands for Dead, the inaction that running
past the end is.  A term's graph is a form kept by ``syntax._form`` beside
its second canonical form, so several questions about one term, whether
structural or behavioural, flatten it, normalize it and write its graph
once.  ``extract`` refines the states reachable from the root and builds
nodes only for the minimized quotient; each decider hands both terms'
graphs, as they lie, to the union-find kernel (``threads._bisimilar``) and
asks whether the states it names, one of each graph per pair, are pairwise
bisimilar.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .canonical import _second
from .syntax import Halt, InstructionSequenceTerm, Jump, PosTest, _EXITS, _form, _relocate
from .threads import Dead, RegularThread, Stop, _bisimilar, _quotient

_DEAD = 0  # state and label of each graph's Dead leaf
_STOP = 1  # state and label of each graph's Stop leaf


def _write(prefix: Sequence, period: Sequence) -> tuple:
    """The position graph of the second canonical form ``prefix +
    period^omega``: (kinds, label, on_true, on_false, state), with
    ``state`` giving the state of each position.

    The Dead and Stop leaves come first, then the acting positions in
    position order; a termination is the Stop leaf and a 0-jump the Dead
    one.  A second canonical form has no chained jumps, so any other jump
    takes the state of the position its offset names, folded into the
    period past the stored positions, and that position is no jump.  Past
    the end of a finite sequence, at position m + j, lies a leaf labelled
    ``("end", j)``; these leaves come last.
    """
    kinds = [Dead, Stop]
    label, on_true, on_false = [_DEAD, _STOP], [_DEAD, _STOP], [_DEAD, _STOP]
    seq = prefix + period
    m = len(prefix)
    total = len(seq)
    k = total - m
    by_id: dict[int, int] = {}
    state = []
    acts = []
    jumps = []
    for q, instr in enumerate(seq):
        kind = type(instr)
        if kind is Halt:
            state.append(_STOP)
        elif kind is Jump:
            if instr.offset:
                jumps.append(q)
            state.append(_DEAD)  # a 0-jump; any other is set below
        else:
            acts.append(q)
            state.append(len(label))
            lab = by_id.get(id(instr.basic))
            if lab is None:
                lab = by_id[id(instr.basic)] = len(kinds)
                kinds.append(instr.basic)
            label.append(lab)
    # successors are set below, once every position has its state
    on_true.extend(range(len(on_true), len(label)))
    on_false.extend(range(len(on_false), len(label)))
    ends: dict[int, int] = {}

    def past(q: int) -> int:
        """The leaf at 0-based index ``q`` past the end of a finite sequence."""
        j = q - total + 1  # position m + j
        s = ends.get(j)
        if s is None:  # met first here
            s = ends[j] = len(label)
            label.append(len(kinds))
            kinds.append(("end", j))
            on_true.append(s)
            on_false.append(s)
        return s

    for q in jumps:
        to = q + seq[q].offset
        state[q] = state[to] if to < total else state[m + (to - m) % k] if k else past(to)
    after = state + ([state[m], state[m + 1 % k]] if k else [past(total), past(total + 1)])
    for q in acts:
        s = state[q]
        yes, no = _EXITS[type(seq[q])]
        on_true[s], on_false[s] = after[q + yes], after[q + no]
    return kinds, label, on_true, on_false, state


def _positions(t: InstructionSequenceTerm) -> tuple:
    """``_write`` of the second canonical form of ``t``, kept in its memo
    entry beside that form."""
    return _form(t, "graph", lambda *flat: _write(*_form(t, "second", _second)))


def _graph(t: InstructionSequenceTerm) -> tuple:
    """The position graph of ``t`` with kinds that read every ``end j``
    leaf as Dead."""
    kinds, *graph = _positions(t)
    return [Dead if type(kind) is tuple else kind for kind in kinds], *graph


def extract(t: InstructionSequenceTerm) -> RegularThread:
    """The regular thread produced by executing the instruction sequence."""
    *graph, state = _graph(t)
    return _quotient(*graph, state[0])


def behaviourally_equivalent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm
) -> bool:
    """Bisimilarity of the extracted threads, by the union-find kernel."""
    *graph, state = _graph(t)
    *graph2, state2 = _graph(t2)
    return _bisimilar(graph, graph2, [(state[0], state2[0])])


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
    label ``end j``, as ``_write`` does, and compare once: both graphs'
    ``end j`` leaves stand for ``("end", j)`` and are self-loops, so they
    are bisimilar and act as one leaf.  For a padding p, relabelling
    ``end j`` as Stop when j <= p and as Dead otherwise maps this labelled
    graph onto the padded one, so labelled bisimilarity implies
    bisimilarity under every padding.  Conversely, threads are
    deterministic, so two states that are not bisimilar under the labels
    reach, along one reply path, a first pair of states with different
    labels, and some padding separates every such pair while keeping the
    path: an action against a leaf under any p; Stop against Dead under any
    p; Stop against ``end j`` under p = 0; Dead against ``end j`` under
    p = j; and ``end i`` against ``end j`` with i < j under p = i.  Hence
    labelled bisimilarity is exactly bisimilarity under all paddings at
    once.

    The second canonical form of a term is structurally congruent to it,
    so it has the term's behaviour from every position and under every
    padding, and its parts spell out the sequence: a finite one position
    by position, so finiteness and length are read off them directly; a
    periodic one as a prefix of length m and a period of length k, so
    position q >= m behaves like position m + (q - m) mod k.  Past M =
    max(m_a, m_b), the classes of the positions of both sequences form a
    k_a- and a k_b-periodic sequence.  If these agree on their first
    k_a + k_b - gcd(k_a, k_b) terms, that common word has both periods, so
    by Fine and Wilf's lemma ("Uniqueness theorems for periodic
    functions", 1965) it has period g = gcd(k_a, k_b).  It is at least
    max(k_a, k_b) long and g divides both periods, so both sequences are
    g-periodic, and as they agree on g terms they agree everywhere.  Hence
    positions q < M + k_a + k_b - g suffice; two finite sequences of equal
    length m give k_a = k_b = 0 and their m positions.
    """
    (pre_a, per_a), (pre_b, per_b) = _form(t, "second", _second), _form(t2, "second", _second)
    if bool(per_a) != bool(per_b) or not per_a and len(pre_a) != len(pre_b):
        return False
    *graph_a, entry_a = _positions(t)
    *graph_b, entry_b = _positions(t2)
    m_a, k_a, m_b, k_b = len(pre_a), len(per_a), len(pre_b), len(per_b)
    limit = max(m_a, m_b) + k_a + k_b - gcd(k_a, k_b)
    return _bisimilar(graph_a, graph_b, zip(_unrolled(entry_a, m_a, limit), _unrolled(entry_b, m_b, limit)))


def _unrolled(entry: list, m: int, limit: int) -> list:
    """The states of positions 0 to ``limit - 1``, where ``entry`` holds
    those of the stored positions and the period starts at m."""
    k = len(entry) - m
    return (entry + entry[m:] * ((limit - m) // k))[:limit] if k else entry


# ---------------------------------------------------------------------------
# single-repetition synthesis


def synthesize_repetition(t: InstructionSequenceTerm) -> InstructionSequenceTerm:
    """Repetition-free ``s`` with ``t`` behaviourally equivalent to ``s*``.

    Each state of the minimized extracted thread becomes a block of three
    slots, laid out in state order by ``syntax._relocate``: a branch is
    ``+action`` and jumps to the blocks of its two successors, Stop is
    ``!;#0;#0`` and Dead ``#0;#0;#0``.  A jump to an earlier block wraps
    around the whole program, which the repetition turns into a jump back.
    Like a parse, the program shares one object among equal instructions.
    """
    halt, inaction = Halt(), Jump(0)
    ends = {Stop: [halt, inaction, inaction], Dead: [inaction] * 3}
    tests: dict = {}
    return _relocate([
        ends.get(type(node)) or [tests.setdefault(node.action, PosTest(node.action)), node.on_true, node.on_false]
        for node in extract(t).nodes
    ])
