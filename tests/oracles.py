"""Reference versions of the term-layer algorithms, kept as test oracles.

These are the straightforward implementations the library replaced with
faster ones: the second canonical form by walking every jump chain from
scratch, the position graph of extraction by per-position wrap/at lookups,
bisimilarity by round-by-round refinement that re-keys every state, and the
behavioural deciders as extract, minimize and compare, with behavioural
congruence of finite sequences checked once per termination padding.
They work on plain ``(prefix, period)`` tuples and node lists, so they
share nothing with the code under test but the instruction and node types.
The last one is the shortest-program search by enumerating every program
of each length; it shares the execution kernel and the alphabet with the
search under test, and the kernel has tests of its own against ``use``
and ``apply``.  ``fresh_copy`` undoes the parser's sharing of instruction
objects, so that tests can show the sharing changes no result.
``_position_nodes`` is no oracle: it lays the library's own position graph
out as nodes, for comparison with ``position_nodes``.
"""

from __future__ import annotations

import itertools
from typing import Optional

from iseq.canonical import CanonicalSeq
from iseq.compute import IoConvention, _decode, _run, _search_alphabet, _start_row
from iseq.extraction import _DEAD, _STOP, _graph, _write
from iseq.syntax import (
    AbstractAction,
    Concat,
    Focus,
    FunctionTable,
    Halt,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    Plain,
    PosTest,
    RegisterAction,
    Repeat,
    concat_all,
)
from iseq.threads import TAU, Branch, Dead, RegularThread, Stop


def normalize(prefix, period):
    pre = list(prefix)
    per = list(period)
    if not per:
        return tuple(pre), ()
    k = len(per)
    for d in range(1, k + 1):
        if k % d == 0 and per[:d] * (k // d) == per:
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        per = [per[-1]] + per[:-1]
        pre.pop()
    return tuple(pre), tuple(per)


def canonical(prefix, period):
    pre, per = normalize(prefix, period)
    if not pre:
        pre = (per[0],)
        per = per[1:] + (per[0],)
    return pre, per


def wrap(seq, pos):
    prefix, period = seq
    m = len(prefix)
    if pos <= m + len(period):
        return pos if pos >= 1 else None
    if not period:
        return None
    return m + 1 + (pos - m - 1) % len(period)


def at(seq, pos):
    wrapped = wrap(seq, pos)
    if wrapped is None:
        return None
    prefix, period = seq
    m = len(prefix)
    return prefix[wrapped - 1] if wrapped <= m else period[wrapped - m - 1]


def resolve_chains(seq):
    """Every jump made direct by walking its chain from scratch."""
    prefix, period = seq
    m = len(prefix)

    def resolve(pos, offset):
        if offset == 0:
            return 0
        displacement = offset
        current = pos + offset
        seen = set()
        while True:
            wrapped = wrap(seq, current)
            if wrapped is None:
                return displacement
            instr = at(seq, current)
            if not isinstance(instr, Jump):
                return displacement
            if instr.offset == 0:
                return 0
            if wrapped in seen:
                return 0
            seen.add(wrapped)
            displacement += instr.offset
            current += instr.offset

    new = []
    for idx in range(1, m + len(period) + 1):
        instr = at(seq, idx)
        new.append(Jump(resolve(idx, instr.offset)) if isinstance(instr, Jump) else instr)
    return tuple(new[:m]), tuple(new[m:])


def shorten_jumps(seq):
    prefix, period = seq
    if not period:
        return seq
    m, k = len(prefix), len(period)
    new_prefix = []
    for i, instr in enumerate(prefix, start=1):
        if isinstance(instr, Jump):
            offset = instr.offset
            while offset > k + m - i:
                offset -= k
            instr = Jump(offset)
        new_prefix.append(instr)
    new_period = [Jump(i.offset % k) if isinstance(i, Jump) else i for i in period]
    return tuple(new_prefix), tuple(new_period)


def second_canonical(prefix, period):
    """``(prefix, period)`` of the second canonical form, by the fixpoint."""
    seq = canonical(prefix, period)
    while True:
        step = canonical(*shorten_jumps(resolve_chains(seq)))
        if step == seq:
            return seq
        seq = step


def position_nodes(seq):
    """(nodes, entry) of extraction, with the same numbering as the library."""
    prefix, period = seq
    total = len(prefix) + len(period)
    nodes = [Dead(), Stop()]

    def resolve(pos):
        guard = 0
        while True:
            wrapped = wrap(seq, pos)
            if wrapped is None:
                return 0
            instr = at(seq, wrapped)
            if isinstance(instr, Jump):
                if instr.offset == 0:
                    return 0
                pos = wrapped + instr.offset
                guard += 1
                if guard > total + 1:
                    return 0
                continue
            if isinstance(instr, Halt):
                return 1
            return 2 + wrapped - 1

    for pos in range(1, total + 1):
        instr = at(seq, pos)
        if isinstance(instr, Plain):
            nodes.append(Branch(instr.basic, resolve(pos + 1), resolve(pos + 1)))
        elif isinstance(instr, PosTest):
            nodes.append(Branch(instr.basic, resolve(pos + 1), resolve(pos + 2)))
        elif isinstance(instr, NegTest):
            nodes.append(Branch(instr.basic, resolve(pos + 2), resolve(pos + 1)))
        elif isinstance(instr, Halt):
            nodes.append(Stop())
        else:
            nodes.append(Dead())
    return nodes, [resolve(pos) for pos in range(1, total + 1)]


def _position_nodes(canon: CanonicalSeq):
    """The library's position graph of ``canon`` as nodes, one per stored
    position, so that ``extraction._write`` can be compared with
    ``position_nodes``.

    Returns (nodes, entry) where nodes[0] is Dead, nodes[1] is Stop,
    nodes[1 + p] is the node of position p (Stop for a termination, Dead
    for a jump, which its entry aliases) and entry[p-1] the node behaving
    like execution from position p.  Unlike the rest of this module it runs
    the code under test: only the node layout is built here.
    """
    graph = _graph()
    entry = _write(canon.prefix, canon.period, graph)
    kinds, label, on_true, on_false = graph
    seq = canon.prefix + canon.period
    kind_of = list(kinds)
    node_of = [_DEAD, _STOP] + [2 + q for q, instr in enumerate(seq) if type(instr) not in (Halt, Jump)]
    nodes = [Dead(), Stop()] + [
        Stop() if type(instr) is Halt else Dead() if type(instr) is Jump
        else Branch(kind_of[label[s]], node_of[on_true[s]], node_of[on_false[s]])
        for instr, s in zip(seq, entry)
    ]
    return nodes, [node_of[s] for s in entry]


def bisimulation_classes(nodes):
    """Round-by-round refinement: re-key every state until nothing splits."""
    classes = []
    table = {}
    for node in nodes:
        if isinstance(node, Stop):
            key = ("stop",)
        elif isinstance(node, Dead):
            key = ("dead",)
        else:
            key = ("branch", "tau" if node.action is TAU else node.action)
        classes.append(table.setdefault(key, len(table)))
    while True:
        table = {}
        refined = []
        for node, cls in zip(nodes, classes):
            if isinstance(node, Branch):
                key = (cls, classes[node.on_true], classes[node.on_false])
            else:
                key = (cls,)
            refined.append(table.setdefault(key, len(table)))
        if refined == classes:
            return classes
        classes = refined


def minimize(t):
    """Quotient by the reference refinement, numbered breadth-first."""
    classes = bisimulation_classes(t.nodes)
    representative = {}
    for node, cls in zip(t.nodes, classes):
        representative.setdefault(cls, node)
    order = {classes[t.root]: 0}
    queue = [classes[t.root]]
    while queue:
        node = representative[queue.pop(0)]
        if isinstance(node, Branch):
            for succ in (node.on_true, node.on_false):
                if classes[succ] not in order:
                    order[classes[succ]] = len(order)
                    queue.append(classes[succ])
    nodes = [Stop()] * len(order)
    for cls, idx in order.items():
        node = representative[cls]
        if isinstance(node, Branch):
            node = Branch(node.action, order[classes[node.on_true]], order[classes[node.on_false]])
        nodes[idx] = node
    return RegularThread(tuple(nodes), 0)


def fresh_copy(t):
    """``t`` rebuilt with new instruction objects: equal to the old ones, but
    no two leaves, basic instructions or foci are the same object, where a
    parse shares one object per distinct instruction."""
    if isinstance(t, Concat):
        return Concat(fresh_copy(t.left), fresh_copy(t.right))
    if isinstance(t, Repeat):
        return Repeat(fresh_copy(t.body))
    if isinstance(t, Jump):
        return Jump(t.offset)
    if isinstance(t, Halt):
        return Halt()
    basic = t.basic
    if isinstance(basic, AbstractAction):
        basic = AbstractAction(basic.name)
    else:
        basic = RegisterAction(Focus(basic.focus.name, basic.focus.index), basic.reply, basic.effect)
    return type(t)(basic)


def take(seq, count):
    """The first ``count`` instructions of a sequence, fewer if it ends."""
    out = []
    for pos in range(1, count + 1):
        instr = at(seq, pos)
        if instr is None:
            break
        out.append(instr)
    return out


def shift(node, offset):
    if isinstance(node, Branch):
        return Branch(node.action, node.on_true + offset, node.on_false + offset)
    return node


def threads_equal(t1, t2):
    """Bisimilarity over the disjoint union, by the reference refinement."""
    union = list(t1.nodes) + [shift(n, len(t1.nodes)) for n in t2.nodes]
    classes = bisimulation_classes(union)
    return classes[t1.root] == classes[len(t1.nodes) + t2.root]


def extract(prefix, period):
    """Minimized thread of any (prefix, period) split of a sequence."""
    nodes, entry = position_nodes(second_canonical(prefix, period))
    return minimize(RegularThread(tuple(nodes), entry[0]))


def behaviourally_equivalent(x, y):
    """Extract both (prefix, period) splits, minimize, compare."""
    return threads_equal(extract(*x), extract(*y))


def pad_with_halts(seq, count):
    """Finite sequence extended with ``count`` termination instructions."""
    prefix, period = seq
    assert not period, "only finite sequences can be padded"
    return tuple(prefix) + (Halt(),) * count, ()


def entry_classes(a, b):
    """Bisimilarity classes of every entry position of both sequences."""
    nodes_a, entry_a = position_nodes(a)
    nodes_b, entry_b = position_nodes(b)
    offset = len(nodes_a)
    classes = bisimulation_classes(nodes_a + [shift(n, offset) for n in nodes_b])
    return [classes[i] for i in entry_a], [classes[i + offset] for i in entry_b]


def behaviourally_congruent(x, y):
    """Every entry compared under every padding from 0 to max(jump, 2).

    Past that padding no jump reaches beyond the padded end, so larger
    paddings repeat the verdict of the largest one checked.
    """
    a, b = second_canonical(*x), second_canonical(*y)
    if bool(a[1]) != bool(b[1]):
        return False
    if a[1]:
        cls_a, cls_b = entry_classes(a, b)
        m_a, m_b = len(a[0]), len(b[0])
        return normalize(cls_a[:m_a], cls_a[m_a:]) == normalize(cls_b[:m_b], cls_b[m_b:])
    if len(a[0]) != len(b[0]):
        return False
    reach = max([i.offset for i in a[0] + b[0] if isinstance(i, Jump)] + [2])
    for padding in range(reach + 1):
        cls_a, cls_b = entry_classes(pad_with_halts(a, padding), pad_with_halts(b, padding))
        if cls_a != cls_b:
            return False
    return True


def search_shortest(
    table: FunctionTable, k: int, max_len: int
) -> Optional[InstructionSequenceTerm]:
    """Length-lexicographically least core program computing the table.

    Enumerates all programs over the core instructions, forward jumps with
    literals up to the candidate length, and termination; returns None when
    no program of length up to ``max_len`` computes the table.
    """
    if max_len < 0:
        raise ValueError("max_len must be a natural number")
    conv = IoConvention(table.n, table.m, k)
    outputs = slice(conv.n, conv.n + conv.m)
    rows = [
        (_start_row(conv, bits), None if want is None else [bit == "1" for bit in want])
        for bits, want in table.rows()
    ]

    def passes(code) -> bool:
        for start, want in rows:
            regs = list(start)
            if (regs[outputs] if _run(code, regs) else None) != want:
                return False
        return True

    for length in range(1, max_len + 1):
        alphabet = _search_alphabet(conv, length)
        decoded = _decode(alphabet, conv)
        candidates = zip(
            itertools.product(alphabet, repeat=length),
            itertools.product(decoded, repeat=length),
        )
        for candidate, code in candidates:
            if passes(code):
                return concat_all(candidate)
    return None
