"""Regular threads: finite rooted deterministic behaviour graphs.

A thread state either terminates (Stop), is inactive (Dead), or performs an
action and branches on the Boolean reply (Branch).  The internal action tau
always replies true; branches labelled tau are normalized at construction so
that both successors coincide.

Equality of threads is bisimilarity; by the approximation induction
principle this coincides with equality of all finite projections.  Both
kernels here work on three int arrays: a label, a true successor and a
false successor per state, with each leaf a self-loop under a label of its
own.  ``bisimulation_classes``, ``minimize`` and ``threads_equal`` translate
nodes into these arrays; :mod:`extraction` writes its position graphs into
them directly.

Where the answer is a partition (``bisimulation_classes``, and ``minimize``
and ``extract`` through ``_quotient``), ``_classes`` refines every state.
It starts from one block per label.  Moore rounds re-key every state by its
successors' blocks until a round changes nothing or two rounds in a row
fail to double the number of blocks: at most 2 log2(n) + 3 rounds, at O(n)
each.  Then Hopcroft's algorithm (Hopcroft 1971, in the array form of
Valmari, "Fast brief practical DFA minimization", IPL 2012) finishes: a
splitter block marks the predecessors of its states under one successor
map, every block it cuts is split, and the smaller part becomes a new
splitter.  A state then lies in a splitter at most log2(n) + 1 times, and
each state has two successor edges, so the whole refinement is O(n log n)
for n states, where rounds alone are quadratic on a chain.  Measured on
CPython 3.11 (2-vCPU VM, median of three runs) over the graphs one pass of
each benchmark workload refines: on the 520 graphs of ``cli-small`` (1 to
68 states, median 5), Hopcroft's refinement from the label blocks alone
costs 2.6 to 3.1 times the plain round-by-round refinement, and this
combination 1.1 times; on the 44 graphs of ``large-terms`` (2 to 667
states, median 56) they cost 1.9 and 1.4 times.

Where the answer is whether given pairs of states are bisimilar
(``threads_equal`` and both behavioural deciders), ``_bisimilar`` runs
Hopcroft and Karp's union-find test, which visits only the pairs reachable
from those given and stops at the first pair of different labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .syntax import AbstractAction, BasicInstruction, RegisterAction


class _Tau:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "tau"


TAU = _Tau()

Action = BasicInstruction | _Tau


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Dead:
    pass


@dataclass(frozen=True)
class Branch:
    action: Action
    on_true: int
    on_false: int


Node = Stop | Dead | Branch


@dataclass(frozen=True)
class RegularThread:
    nodes: tuple[Node, ...]
    root: int = 0

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a thread needs at least one state")
        if not 0 <= self.root < len(self.nodes):
            raise ValueError("root state out of range")
        normalized = []
        changed = False
        for node in self.nodes:
            if isinstance(node, Branch):
                if not 0 <= node.on_true < len(self.nodes) or not 0 <= node.on_false < len(self.nodes):
                    raise ValueError("successor state out of range")
                if node.action is TAU and node.on_false != node.on_true:
                    node = Branch(TAU, node.on_true, node.on_true)
                    changed = True
            normalized.append(node)
        if changed:
            object.__setattr__(self, "nodes", tuple(normalized))

    def node(self, index: int) -> Node:
        return self.nodes[index]


STOP = RegularThread((Stop(),))
DEAD = RegularThread((Dead(),))


def prefix_action(action: Action, tail: RegularThread) -> RegularThread:
    """Thread performing ``action`` then continuing as ``tail`` on any reply."""
    return branch(action, tail, tail)


def branch(action: Action, on_true: RegularThread, on_false: RegularThread) -> RegularThread:
    """Postconditional composition of two threads."""
    offset = 1
    nodes: list[Node] = [Branch(action, on_true.root + 1, on_false.root + 1 + len(on_true.nodes))]
    for node in on_true.nodes:
        nodes.append(_shift(node, offset))
    offset += len(on_true.nodes)
    for node in on_false.nodes:
        nodes.append(_shift(node, offset))
    return RegularThread(tuple(nodes), 0)


def _shift(node: Node, offset: int) -> Node:
    if isinstance(node, Branch):
        return Branch(node.action, node.on_true + offset, node.on_false + offset)
    return node


# ---------------------------------------------------------------------------
# bisimilarity: partition refinement and the union-find test


def _classes(label: Sequence[int], on_true: Sequence[int], on_false: Sequence[int]) -> list[int]:
    """Class index per state of an array graph; equal class means bisimilar.

    Classes are numbered in order of first occurrence.  Determinism makes
    bisimilarity the coarsest partition that refines the labels and is
    stable under both successor maps.  Moore rounds split every block by its
    successors' blocks until a round changes nothing or two rounds in a row
    fail to double the number of blocks; Hopcroft's refinement finishes the
    job from there (see the module docstring).
    """
    parent = label
    count = len(set(label))
    slow = False  # the last round failed to double the number of blocks
    while True:
        keys: dict = {}
        block = [
            keys.setdefault(key, len(keys))
            for key in zip(parent, [parent[s] for s in on_true], [parent[s] for s in on_false])
        ]
        if len(keys) == count:
            return block  # stable, and numbered by first occurrence
        if slow and len(keys) < 2 * count:
            break
        slow = len(keys) < 2 * count
        parent = block
        count = len(keys)
    return _refine(on_true, on_false, parent, block, len(keys))


def _refine(
    on_true: Sequence[int], on_false: Sequence[int], parent: list[int], block: list[int], count: int
) -> list[int]:
    """Hopcroft's refinement of ``block`` to the coarsest stable partition.

    ``block`` (``count`` blocks) must be stable under the blocks of
    ``parent``, which it refines.  Then every block of ``block`` but the
    largest part of each ``parent`` block suffices as a splitter.  Each block
    is a contiguous run of ``elems``; the states a splitter marks in a block
    are moved to the front of its run, and the smaller of the marked and
    unmarked parts becomes a new block and a new splitter.
    """
    pred_true: list[list[int]] = [[] for _ in block]
    pred_false: list[list[int]] = [[] for _ in block]
    groups: list[list[int]] = [[] for _ in range(count)]
    for state, (b, t, f) in enumerate(zip(block, on_true, on_false)):
        groups[b].append(state)
        pred_true[t].append(state)
        pred_false[f].append(state)
    elems: list[int] = []
    first: list[int] = []
    end: list[int] = []
    largest: dict[int, int] = {}
    for b, members in enumerate(groups):
        first.append(len(elems))
        elems += members
        end.append(len(elems))
        other = largest.get(parent[members[0]])
        if other is None or len(groups[other]) < len(members):
            largest[parent[members[0]]] = b
    kept = set(largest.values())
    pending = [b for b in range(count) if b not in kept]
    where = [0] * len(block)
    for i, state in enumerate(elems):
        where[state] = i
    marked = first[:]
    while pending:
        splitter = pending.pop()
        members = elems[first[splitter] : end[splitter]]
        for preds in (pred_true, pred_false):
            touched = []
            for state in members:
                for p in preds[state]:
                    b = block[p]
                    i = where[p]
                    j = marked[b]
                    if i < j:
                        continue  # already marked
                    if i != j:
                        other = elems[j]
                        elems[i] = other
                        where[other] = i
                        elems[j] = p
                        where[p] = j
                    if j == first[b]:
                        touched.append(b)
                    marked[b] = j + 1
            for b in touched:
                lo, mid, hi = first[b], marked[b], end[b]
                marked[b] = lo
                if mid == hi:
                    continue  # every state of the block was marked
                new = len(first)
                if mid - lo <= hi - mid:
                    first.append(lo)
                    end.append(mid)
                    marked.append(lo)
                    first[b] = marked[b] = mid
                    part = range(lo, mid)
                else:
                    first.append(mid)
                    end.append(hi)
                    marked.append(mid)
                    end[b] = mid
                    part = range(mid, hi)
                for i in part:
                    block[elems[i]] = new
                pending.append(new)
    # renumber by first occurrence
    number = [-1] * len(first)
    classes = []
    seen = 0
    for b in block:
        cls = number[b]
        if cls < 0:
            cls = number[b] = seen
            seen += 1
        classes.append(cls)
    return classes


def _bisimilar(
    label: Sequence[int], on_true: Sequence[int], on_false: Sequence[int], pairs: Iterable[tuple[int, int]]
) -> bool:
    """Whether every pair of states of an array graph is bisimilar.

    Hopcroft and Karp's test ("A linear algorithm for testing equivalence
    of finite automata", 1971): pop a pair, find both representatives with
    path halving, and unless they are one, fail on different labels or
    merge them and push their successor pairs.  If every pair given is
    bisimilar, so is every pair pushed, so no class merges two labels;
    otherwise some pushed pair has two labels.  Only pairs reachable from
    those given are visited.
    """
    parent = list(range(len(label)))
    stack = list(pairs)
    while stack:
        s, t = stack.pop()
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        if s == t:
            continue
        if label[s] != label[t]:
            return False
        parent[s] = t
        stack.append((on_true[s], on_true[t]))
        stack.append((on_false[s], on_false[t]))
    return True


def _reachable(
    label: Sequence[int], on_true: Sequence[int], on_false: Sequence[int], roots: Sequence[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The states reachable from ``roots``, numbered breadth-first, true
    successor first: (new number or -1 per old state, label, on_true,
    on_false)."""
    index = [-1] * len(label)
    order: list[int] = []
    for root in roots:
        if index[root] < 0:
            index[root] = len(order)
            order.append(root)
    for state in order:  # the list grows while it is walked: a queue
        for succ in (on_true[state], on_false[state]):
            if index[succ] < 0:
                index[succ] = len(order)
                order.append(succ)
    new_true = [index[on_true[s]] for s in order]
    return index, [label[s] for s in order], new_true, [index[on_false[s]] for s in order]


def _quotient(
    kinds: Sequence, label: Sequence[int], on_true: Sequence[int], on_false: Sequence[int], root: int
) -> RegularThread:
    """Least-state thread bisimilar to state ``root`` of an array graph.

    ``kinds[x]`` is what label ``x`` stands for: an action, or the class
    ``Stop`` or ``Dead`` of a leaf.  Only the states reachable from the root
    are refined, numbered breadth-first, so the classes, numbered by first
    occurrence, come out in breadth-first order of the quotient: only the
    first state of a class can introduce new successor classes.
    """
    _, label, on_true, on_false = _reachable(label, on_true, on_false, (root,))
    classes = _classes(label, on_true, on_false)
    nodes: list[Node] = []
    for state, cls in enumerate(classes):
        if cls == len(nodes):  # the first state of its class
            kind = kinds[label[state]]
            succ = classes[on_true[state]], classes[on_false[state]]
            nodes.append(kind() if kind is Stop or kind is Dead else Branch(kind, *succ))
    return RegularThread(tuple(nodes), 0)


def _arrays(*node_lists: Sequence[Node]) -> tuple[dict, list[int], list[int], list[int]]:
    """(kinds, label, on_true, on_false) of the disjoint union of node
    lists; ``kinds`` interns each action and each leaf class as a label."""
    kinds: dict = {}
    label: list[int] = []
    on_true: list[int] = []
    on_false: list[int] = []
    for nodes in node_lists:
        offset = len(label)
        for state, node in enumerate(nodes, offset):
            if type(node) is Branch:
                label.append(kinds.setdefault(node.action, len(kinds)))
                on_true.append(node.on_true + offset)
                on_false.append(node.on_false + offset)
            else:
                label.append(kinds.setdefault(type(node), len(kinds)))
                on_true.append(state)
                on_false.append(state)
    return kinds, label, on_true, on_false


def bisimulation_classes(nodes: Sequence[Node]) -> list[int]:
    """Class index per state, numbered by first occurrence; equal class
    means bisimilar."""
    _, *graph = _arrays(nodes)
    return _classes(*graph)


def minimize(t: RegularThread) -> RegularThread:
    """Least-state bisimilar thread with canonical breadth-first numbering."""
    kinds, *graph = _arrays(t.nodes)
    return _quotient(list(kinds), *graph, t.root)


def threads_equal(t1: RegularThread, t2: RegularThread) -> bool:
    """Bisimilarity, decided over the disjoint union of the state sets."""
    _, *graph = _arrays(t1.nodes, t2.nodes)
    return _bisimilar(*graph, [(t1.root, len(t1.nodes) + t2.root)])


# ---------------------------------------------------------------------------
# projection


def project(t: RegularThread, depth: int) -> RegularThread:
    """Approximation up to ``depth`` actions; the depth-0 projection is Dead."""
    memo: dict[tuple[int, int], int] = {}
    nodes: list[Node] = []

    def build(state: int, remaining: int) -> int:
        key = (state, remaining)
        if key in memo:
            return memo[key]
        index = len(nodes)
        memo[key] = index
        nodes.append(Dead())  # placeholder; patched below
        node = t.node(state)
        if remaining == 0 or isinstance(node, Dead):
            nodes[index] = Dead()
        elif isinstance(node, Stop):
            nodes[index] = Stop()
        else:
            on_true = build(node.on_true, remaining - 1)
            on_false = build(node.on_false, remaining - 1)
            nodes[index] = Branch(node.action, on_true, on_false)
        return index

    root = build(t.root, depth)
    return RegularThread(tuple(nodes), root)


# ---------------------------------------------------------------------------
# rendering as recursion equations


def action_text(action: Action) -> str:
    if action is TAU:
        return "tau"
    if isinstance(action, (AbstractAction, RegisterAction)):
        return str(action)
    raise TypeError(f"not a thread action: {action!r}")


def render_thread(t: RegularThread) -> str:
    """One recursion equation per reachable branch state.

    Stop and Dead successors are written inline as ``S`` and ``D``; a thread
    that is itself Stop or Dead renders as a single equation.
    """
    root_node = t.node(t.root)
    if isinstance(root_node, Stop):
        return "X0 = S"
    if isinstance(root_node, Dead):
        return "X0 = D"
    numbering: dict[int, int] = {t.root: 0}
    queue = deque([t.root])
    lines = []
    while queue:
        state = queue.popleft()
        node = t.node(state)
        assert isinstance(node, Branch)
        refs = []
        for succ in (node.on_true, node.on_false):
            succ_node = t.node(succ)
            if isinstance(succ_node, Stop):
                refs.append("S")
            elif isinstance(succ_node, Dead):
                refs.append("D")
            else:
                if succ not in numbering:
                    numbering[succ] = len(numbering)
                    queue.append(succ)
                refs.append(f"X{numbering[succ]}")
        lines.append((numbering[state], f"X{numbering[state]} = ({refs[0]}) <{action_text(node.action)}> ({refs[1]})"))
    lines.sort()
    return "\n".join(text for _, text in lines)
