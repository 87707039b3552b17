"""Regular threads: finite rooted deterministic behaviour graphs.

A thread state either terminates (Stop), is inactive (Dead), or performs an
action and branches on the Boolean reply (Branch).  The internal action tau
always replies true; branches labelled tau are normalized at construction so
that both successors coincide.

Equality of threads is bisimilarity; by the approximation induction
principle this coincides with equality of all finite projections.  Both
kernels here work on three int arrays, a label, a true successor and a
false successor per state, with each leaf a self-loop, and on a list
``kinds``: ``kinds[x]`` is what label x stands for, an action, the class
``Stop`` or ``Dead`` of a leaf, or a leaf kind of the caller's own such as
extraction's ``("end", j)``.  Labels that stand for equal kinds count as
one label, so a writer need not intern its kinds.  ``minimize``,
``threads_equal`` and ``interaction.abstract_tau`` translate one node list
into these arrays (``_arrays``); :mod:`extraction` writes its position
graphs and ``interaction.use`` its product into them directly.  Every
thread the library minimizes ends in ``_quotient``.  ``_chain_ends`` is
the one rule for chains, of jumps in a sequence (``canonical._second_step``)
and of tau steps (``abstract_tau``): a chain lands on its first real step,
or on inaction at a 0-jump or a cycle, and one memoized walk resolves
every chain in time linear in its links.

Where the answer is a partition (``_quotient``), ``_classes`` refines every
state by Hopcroft's algorithm (Hopcroft 1971) over blocks held as sets of
states, starting from one block per label: a splitter block groups the
predecessors of its states under one successor map by block, every block
met only in part is split, and the smaller part becomes a new block and a
new splitter.  A state then lies in a splitter at most log2(n) + 1 times,
and each state has two successor edges, so the predecessor scans are
O(n log n) for n states.  A split costs O(states met): the met part is
built from them, and where it is the larger part the other one is a set
difference of at most twice as many states.  A graph whose labels are all
distinct is returned at once.

Where the answer is whether given pairs of states are bisimilar
(``threads_equal`` and both behavioural deciders), ``_bisimilar`` runs
Hopcroft and Karp's union-find test on two graphs where they lie.  It
visits only the pairs reachable from those given and stops at the first
pair whose labels stand for different kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .syntax import AbstractAction, BasicInstruction, RegisterAction


class _Tau:
    def __repr__(self) -> str:
        return "tau"

    def __reduce__(self) -> str:
        return "TAU"  # copies and unpickled objects are the one TAU


TAU = _Tau()

Action = BasicInstruction | _Tau


@dataclass(frozen=True, slots=True)
class Stop:
    pass


@dataclass(frozen=True, slots=True)
class Dead:
    pass


@dataclass(frozen=True, slots=True)
class Branch:
    action: Action
    on_true: int
    on_false: int


Node = Stop | Dead | Branch


@dataclass(frozen=True, slots=True)
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


# ---------------------------------------------------------------------------
# bisimilarity: partition refinement and the union-find test


def _classes(label: Sequence[int], on_true: Sequence[int], on_false: Sequence[int]) -> list[int]:
    """Class index per state of an array graph; equal class means bisimilar.

    Classes are numbered in order of first occurrence.  Determinism makes
    bisimilarity the coarsest partition that refines the labels and is
    stable under both successor maps.  Hopcroft's refinement starts from one
    block per label, each a set of states; that partition is stable under
    the single block of all states, so every block but the largest suffices
    as a splitter.  Under each successor map a splitter's predecessors are
    grouped by block, every block they meet in part is split, and the
    smaller part (the met one on a tie) becomes a new block and a new
    splitter.  Each state has one successor per map, so a splitter meets a
    state at most once per map; where the larger part was met, the other
    part is a set difference of at most twice the states met, so a split
    costs no more than the scan that found them, and the whole refinement
    stays O(n log n).
    """
    keys: dict[int, int] = {}
    block = [keys.setdefault(lab, len(keys)) for lab in label]
    if len(keys) == len(block):
        return block  # every label distinct, numbered by first occurrence
    blocks: list[set[int]] = [set() for _ in keys]
    pred_true: list[list[int]] = [[] for _ in block]
    pred_false: list[list[int]] = [[] for _ in block]
    for state, (b, t, f) in enumerate(zip(block, on_true, on_false)):
        blocks[b].add(state)
        pred_true[t].append(state)
        pred_false[f].append(state)
    largest = max(range(len(blocks)), key=lambda b: len(blocks[b]))
    pending = [b for b in range(len(blocks)) if b != largest]
    while pending:
        members = list(blocks[pending.pop()])
        for preds in (pred_true, pred_false):
            met: dict[int, list[int]] = {}
            for state in members:
                for p in preds[state]:
                    met.setdefault(block[p], []).append(p)
            for b, part in met.items():
                whole = blocks[b]
                if len(part) == len(whole):
                    continue  # the splitter meets every state of the block
                part = whole.difference(part) if 2 * len(part) > len(whole) else set(part)
                whole -= part
                new = len(blocks)
                blocks.append(part)
                for p in part:
                    block[p] = new
                pending.append(new)
    number: dict[int, int] = {}
    return [number.setdefault(b, len(number)) for b in block]


def _bisimilar(first: Sequence, second: Sequence, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether state ``a`` of graph ``first`` is bisimilar to state ``b``
    of graph ``second`` for every pair ``(a, b)`` given.

    Each graph is ``(kinds, label, on_true, on_false)``, read where it
    lies; pass one graph twice to compare two of its states.  ``kind`` and
    ``kind2`` number the kinds of both graphs alike, by label.

    Hopcroft and Karp's test ("A linear algorithm for testing equivalence
    of finite automata", 1971): pop a pair, find both representatives with
    path halving, and unless they are one, fail on different kinds or
    merge them and push the pair's successor pairs, again one state of
    each graph.  One parent list holds both graphs, ``second``'s states
    offset by n.  If every pair given is bisimilar, so is every pair
    pushed, so no class merges two kinds; otherwise some pushed pair has
    two kinds.  Only pairs reachable from those given are visited.
    """
    kinds, label, on_true, on_false = first
    kinds2, label2, on_true2, on_false2 = second
    number: dict = {}
    kind = [number.setdefault(k, len(number)) for k in kinds]
    kind2 = [number.setdefault(k, len(number)) for k in kinds2]
    n = len(label)
    parent = list(range(n + len(label2)))
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        s, t = a, b + n
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        if s == t:
            continue
        if kind[label[a]] != kind2[label2[b]]:
            return False
        parent[s] = t
        stack.append((on_true[a], on_true2[b]))
        stack.append((on_false[a], on_false2[b]))
    return True


def _chain_ends(succ: Sequence[int], links: Iterable[int], size: int) -> list[int]:
    """Where each index below ``size`` lands when chains of links are followed.

    A non-link lands on itself.  A link lands where following ``succ`` first
    reaches a non-link, at an index of ``size`` or more if it gets there
    first, and at -1, inaction, if it reaches -1 or cycles.  Each link is
    walked once: a chain stops at the first link whose landing is known and
    shares it.
    """
    land = list(range(size))
    for q in links:
        land[q] = -2  # unknown; -3 while on the chain walked
    for start in links:
        if land[start] != -2:
            continue
        chain = []
        q = start
        while True:
            chain.append(q)
            land[q] = -3
            q = succ[q]
            if q < 0 or q >= size:
                end = q
                break
            end = land[q]
            if end != -2:
                end = max(end, -1)  # a landing, or -3: a cycle through this chain
                break
        for q in chain:
            land[q] = end
    return land


def _quotient(
    kinds: Sequence, label: Sequence[int], on_true: Sequence[int], on_false: Sequence[int], root: int
) -> RegularThread:
    """Least-state thread bisimilar to state ``root`` of an array graph.

    Each label is read as the first label of its kind, which must be an
    action, ``Stop`` or ``Dead``.  Only the states reachable from the root
    are refined, numbered breadth-first, true successor first, so the
    classes, numbered by first occurrence, come out in breadth-first order
    of the quotient: only the first state of a class can introduce new
    successor classes.
    """
    index = [-1] * len(label)
    index[root] = 0
    order = [root]
    for state in order:  # the list grows while it is walked: a queue
        for succ in (on_true[state], on_false[state]):
            if index[succ] < 0:
                index[succ] = len(order)
                order.append(succ)
    number: dict = {}
    first = [number.setdefault(kind, x) for x, kind in enumerate(kinds)]
    label = [first[label[s]] for s in order]
    on_true = [index[on_true[s]] for s in order]
    on_false = [index[on_false[s]] for s in order]
    classes = _classes(label, on_true, on_false)
    nodes: list[Node] = []
    for state, cls in enumerate(classes):
        if cls == len(nodes):  # the first state of its class
            kind = kinds[label[state]]
            succ = classes[on_true[state]], classes[on_false[state]]
            nodes.append(kind() if kind is Stop or kind is Dead else Branch(kind, *succ))
    return RegularThread(tuple(nodes), 0)


def _arrays(nodes: Sequence[Node]) -> tuple[list, list[int], list[int], list[int]]:
    """(kinds, label, on_true, on_false) of a node list, each state under a
    label of its own."""
    kinds: list = []
    on_true: list[int] = []
    on_false: list[int] = []
    for state, node in enumerate(nodes):
        branch = type(node) is Branch
        kinds.append(node.action if branch else type(node))
        on_true.append(node.on_true if branch else state)
        on_false.append(node.on_false if branch else state)
    return kinds, list(range(len(nodes))), on_true, on_false


def minimize(t: RegularThread) -> RegularThread:
    """Least-state bisimilar thread with canonical breadth-first numbering."""
    return _quotient(*_arrays(t.nodes), t.root)


def threads_equal(t1: RegularThread, t2: RegularThread) -> bool:
    """Bisimilarity of the two roots, by the union-find kernel."""
    return _bisimilar(_arrays(t1.nodes), _arrays(t2.nodes), [(t1.root, t2.root)])


# ---------------------------------------------------------------------------
# projection


def project(t: RegularThread, depth: int) -> RegularThread:
    """Approximation up to ``depth`` actions; the depth-0 projection is Dead.

    States are numbered breadth first, true successor first, as
    ``minimize`` numbers them, with no recursion, so any depth works.
    """
    found = [(t.root, depth)]
    index = {found[0]: 0}
    nodes: list[Node] = []
    for state, remaining in found:  # the list grows while it is walked: a queue
        node = t.node(state)
        if remaining == 0 or isinstance(node, Dead):
            nodes.append(Dead())
        elif isinstance(node, Stop):
            nodes.append(Stop())
        else:
            succ = []
            for key in ((node.on_true, remaining - 1), (node.on_false, remaining - 1)):
                if key not in index:
                    index[key] = len(found)
                    found.append(key)
                succ.append(index[key])
            nodes.append(Branch(node.action, *succ))
    return RegularThread(tuple(nodes), 0)


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
    order = [t.root]
    lines = []
    for number, state in enumerate(order):  # the list grows while it is walked: a queue, in number order
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
                    numbering[succ] = len(order)
                    order.append(succ)
                refs.append(f"X{numbering[succ]}")
        lines.append(f"X{number} = ({refs[0]}) <{action_text(node.action)}> ({refs[1]})")
    return "\n".join(lines)
