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
of each length, over ``search_alphabet``, which lists every auxiliary
register at every length; it shares the decoding with the search under
test, and runs each row on its own through ``_run``, the per-row kernel
that ``iseq.compute`` replaced by one pass over row masks.
``search_without_conflicts`` is the frontier walk without the rule that
two rows in one state must want one result, written afresh over the
search's own alphabets, so it checks that rule alone.
``row_outputs`` reads a table's rows through ``_run`` to check that pass.
``fresh_copy`` undoes the parser's sharing of instruction objects, so that
tests can show the sharing changes no result.  ``Stream``
is a lazy unfolder: it finds the period by watching a repetition come back
off an explicit stack, where the library flattens the term up front, so it
checks ``flatten``, ``unfold`` and ``simulate`` from outside.
``position_arrays`` lays the reference position graph out as
``extraction._write`` lays out its own, so the two compare as int arrays.
The parsers over ``(kind, text, position)`` token tuples, built by a
character-by-character tokenizer, check the parsers over token strings.
``use``, ``apply`` and ``simulate`` are the routes that key every step by
the whole family and run the fuel out step by step; they check the routes
over the named registers and ``simulate``'s cycle finding.
``abstract_tau`` walks the tau chain afresh from every state that enters
it, where the library resolves every chain once.
The last four helpers are not oracles but test conveniences that no library
code calls: ``content_of_bit``, ``iter_basics``, ``compose`` of evaluated
families, and ``hopcroft_classes``, the partition the library's refinement
(``threads._classes``) finds on a node list.  So are ``branch`` and
``prefix_action``, which build expected threads by postconditional
composition.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator, Optional, Sequence

from iseq.compute import IoConvention, _Op, _decode, _search_alphabets
from iseq.interaction import Outcome
from iseq.registers import RegisterFamily
from iseq.syntax import (
    AbstractAction,
    BasicInstruction,
    ComposeFamily,
    Concat,
    EmptyFamily,
    Focus,
    FunctionTable,
    Halt,
    HideFamily,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    ParseError,
    Plain,
    PosTest,
    PrimitiveInstruction,
    RegisterAction,
    RegisterContent,
    RegisterFamilyTerm,
    Repeat,
    SingletonFamily,
    UnaryBoolFunc,
    concat_all,
    flatten,
    focus_sort_key,
)
from iseq.threads import TAU, Branch, Dead, Node, RegularThread, Stop, _arrays, _classes


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


def position_arrays(seq):
    """Extraction's position graph by per-position wrap lookups, laid
    out as ``extraction._write`` lays out its own: (labels, label, on_true,
    on_false, entry).  State 0 is Dead and state 1 is Stop, each its own
    successor, and the acting positions follow in position order;
    ``labels`` lists what each label stands for, Dead and Stop first, then
    every distinct basic instruction as first met; entry[p-1] is the state
    behaving like execution from position p."""
    instrs = tuple(seq[0]) + tuple(seq[1])  # instrs[p-1] is at(seq, p) for a stored p
    total = len(instrs)
    labels = {Dead: 0, Stop: 1}
    label = [0, 1]
    state = {}
    for pos, instr in enumerate(instrs, start=1):
        if not isinstance(instr, (Halt, Jump)):
            state[pos] = len(label)
            label.append(labels.setdefault(instr.basic, len(labels)))

    def resolve(pos):
        guard = 0
        while True:
            wrapped = wrap(seq, pos)
            if wrapped is None:
                return 0
            instr = instrs[wrapped - 1]
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
            return state[wrapped]

    entry = [resolve(pos) for pos in range(1, total + 3)]  # two past the end for the last tests
    on_true, on_false = [0, 1], [0, 1]
    for pos in state:
        instr = instrs[pos - 1]
        after, skip = entry[pos], entry[pos + 1]  # positions pos + 1 and pos + 2
        on_true.append(skip if isinstance(instr, NegTest) else after)
        on_false.append(skip if isinstance(instr, PosTest) else after)
    return list(labels), label, on_true, on_false, entry[:total]


def position_nodes(seq):
    """(nodes, entry) of extraction: ``position_arrays`` as nodes."""
    labels, label, on_true, on_false, entry = position_arrays(seq)
    nodes = [Dead(), Stop()] + [
        Branch(labels[label[s]], on_true[s], on_false[s]) for s in range(2, len(label))
    ]
    return nodes, entry


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


class Stream:
    """Random access over a possibly infinite instruction stream.

    The term unfolds along an explicit stack, on which a repetition
    re-enqueues itself after its body.  When the repetition first popped
    last comes back off the stack, the stack is as it was then, so the
    instructions emitted in between are the stream's period; later
    positions are read modulo it, and a long jump unfolds nothing.
    """

    def __init__(self, t: InstructionSequenceTerm):
        self._stack = [t]
        self._cache: list[PrimitiveInstruction] = []
        self._repeat: Repeat | None = None
        self._start = 0  # stream length when ``_repeat`` was popped
        self._period = 0  # nonzero once the stream is known to repeat

    def at(self, pos: int) -> PrimitiveInstruction | None:
        """Instruction at 1-based position ``pos``; None past a finite end."""
        cache, stack = self._cache, self._stack
        while len(cache) < pos and stack and not self._period:
            node = stack.pop()
            if isinstance(node, Concat):
                stack.append(node.right)
                stack.append(node.left)
            elif node is self._repeat:
                self._period = len(cache) - self._start
            elif isinstance(node, Repeat):
                self._repeat, self._start = node, len(cache)
                stack.append(node)
                stack.append(node.body)
            else:
                cache.append(node)
        if len(cache) < pos:
            if not self._period:
                return None
            pos = self._start + 1 + (pos - 1 - self._start) % self._period
        return cache[pos - 1]


def shift(node, offset):
    if isinstance(node, Branch):
        return Branch(node.action, node.on_true + offset, node.on_false + offset)
    return node


def prefix_action(action, tail):
    """Thread performing ``action`` then continuing as ``tail`` on any reply."""
    return branch(action, tail, tail)


def branch(action, on_true, on_false):
    """Postconditional composition of two threads."""
    offset = 1 + len(on_true.nodes)
    nodes = [Branch(action, on_true.root + 1, on_false.root + offset)]
    nodes += [shift(n, 1) for n in on_true.nodes]
    nodes += [shift(n, offset) for n in on_false.nodes]
    return RegularThread(tuple(nodes), 0)


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


def _run(code: Sequence[_Op], regs: list[bool]) -> bool:
    """Run decoded code on the registers in place; True iff it terminates.

    Every step moves forward, so a run ends within ``len(code)`` steps.
    """
    pos = 0
    end = len(code)
    while pos < end:
        op = code[pos]
        if op is None:
            return True
        if type(op) is int:
            if not op:
                return False
            pos += op
        else:
            slot, effect0, effect1, step0, step1 = op
            if regs[slot]:
                regs[slot] = effect1
                pos += step1
            else:
                regs[slot] = effect0
                pos += step0
    return False


def _start_row(conv: IoConvention, bits: str) -> list[bool]:
    return [bit == "1" for bit in bits] + [False] * (conv.m + conv.k)


def row_outputs(t: InstructionSequenceTerm, conv: IoConvention) -> tuple[Optional[str], ...]:
    """The outputs of a valid repetition-free program on every input row, in
    table order, by one ``_run`` per row; None where the run goes inactive."""
    code = _decode(flatten(t)[0], conv)
    outputs = []
    for bits in map("".join, itertools.product("01", repeat=conv.n)):
        regs = _start_row(conv, bits)
        ended = _run(code, regs)
        outputs.append("".join("1" if bit else "0" for bit in regs[conv.n : conv.n + conv.m]) if ended else None)
    return tuple(outputs)


def search_alphabet(conv: IoConvention, length: int) -> list[PrimitiveInstruction]:
    """Candidate instructions, in the order that defines 'lexicographically
    least': ``!``, ``#0`` to ``#length``, then the nine core instructions on
    each of in:1..n, out:1..m and aux:1..k."""
    instrs: list[PrimitiveInstruction] = [Halt(), *map(Jump, range(length + 1))]
    for name, count in (("in", conv.n), ("out", conv.m), ("aux", conv.k)):
        for i in range(1, count + 1):
            for op in (UnaryBoolFunc.CONST_FALSE, UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.IDENTITY):
                action = RegisterAction(Focus(name, i), op, op)
                instrs += (Plain(action), PosTest(action), NegTest(action))
    return instrs


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
        alphabet = search_alphabet(conv, length)
        decoded = _decode(alphabet, conv)
        candidates = zip(
            itertools.product(alphabet, repeat=length),
            itertools.product(decoded, repeat=length),
        )
        for candidate, code in candidates:
            if passes(code):
                return concat_all(candidate)
    return None


def search_without_conflicts(
    table: FunctionTable, k: int, max_len: int
) -> tuple[Optional[InstructionSequenceTerm], int]:
    """``compute.search_shortest`` without the rule that two unfinished rows
    in one state must want one result, and with no node budget: its answer
    and the number of frontiers it expanded.  A row's state packs its
    registers above its positions left, 0 once it ended right."""
    if table.m == 0:
        return (Halt() if max_len else None), 0
    width = max_len.bit_length()
    outputs = ((1 << table.m) - 1) << table.n
    starts = [int(bits[::-1] or "0", 2) for bits, _ in table.rows()]
    wants = [None if want is None else int(want[::-1], 2) << table.n for _, want in table.rows()]

    def advance(frontier, left, op):
        child = list(frontier)
        for r, state in enumerate(frontier):
            if state & ((1 << width) - 1) != left:
                continue
            regs = state >> width
            if op is None:
                if regs & outputs != wants[r]:
                    return None
                child[r] = 0
                continue
            if type(op) is int:
                step = op or left
            else:
                slot, effect0, effect1, step0, step1 = op
                bit = (regs >> slot) & 1
                regs = regs & ~(1 << slot) | (effect1 if bit else effect0) << slot
                step = step1 if bit else step0
            if step >= left:
                if wants[r] is not None:
                    return None
                child[r] = 0
            elif wants[r] is not None and ((regs & outputs) ^ wants[r]).bit_count() >= left - step:
                return None
            else:
                child[r] = regs << width | (left - step)
        return tuple(child)

    seen: list[set] = [set()]
    visited = 0
    for length, (alphabet, code) in zip(range(1, max_len + 1), _search_alphabets(table.n, table.m, k)):
        seen.append(set())
        stack = [((), tuple(regs << width | length for regs in starts))]
        while stack:
            prefix, frontier = stack.pop()
            left = length - len(prefix)
            if not left:
                return concat_all(alphabet[i] for i in prefix), visited
            visited += 1
            children = []
            for i, op in enumerate(code):
                child = advance(frontier, left, op)
                if child is not None and child not in seen[left - 1]:
                    seen[left - 1].add(child)
                    children.append((prefix + (i,), child))
            stack.extend(reversed(children))
    return None, visited


# ---------------------------------------------------------------------------
# the parsers over (kind, text, position) token tuples


_PUNCT = ";*()#!+-.:/{}=,"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():  # int() reads these; isdigit also admits '²'
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens


# enum members by source token; a table lookup is much cheaper than the call
_FUNC_OF = {f.token: f for f in UnaryBoolFunc}
_CONTENT_OF = {c.token: c for c in RegisterContent}

# deepest nesting of parentheses (and so of repetitions and encapsulations)
# the parsers accept; it keeps every recursive walk of a parsed term far
# from the interpreter's recursion limit
MAX_NESTING = 100


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # one object per distinct instruction of this parse, by source key
        self.shared: dict = {}

    def enter(self, position: int) -> None:
        """Open one more level of nesting; refuse one past ``MAX_NESTING``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position)

    def leave(self) -> None:
        self.depth -= 1

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    # expect and at run for nearly every token, so they index tokens directly
    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def done(self) -> bool:
        return self.at("eof")


# ---------------------------------------------------------------------------
# instruction sequence parser

_MAX_JUMP = 10**9


def parse_instruction_sequence(text: str) -> InstructionSequenceTerm:
    cur = _Cursor(text)
    term = _parse_seq(cur)
    if not cur.done():
        tok = cur.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return term


def _parse_seq(cur: _Cursor) -> InstructionSequenceTerm:
    items = [_parse_item(cur)]
    while cur.at(";"):
        cur.next()
        items.append(_parse_item(cur))
    return concat_all(items)


def _parse_item(cur: _Cursor) -> InstructionSequenceTerm:
    atom = _parse_atom(cur)
    if cur.at("*"):
        cur.next()
        return Repeat(atom)
    return atom


def _parse_atom(cur: _Cursor) -> InstructionSequenceTerm:
    kind, value, pos = cur.peek()
    if kind == "(":
        cur.next()
        cur.enter(pos)
        inner = _parse_seq(cur)
        cur.expect(")")
        cur.leave()
        return inner
    shared = cur.shared
    if kind == "!":
        cur.next()
        return shared.get(Halt) or shared.setdefault(Halt, Halt())
    if kind == "#":
        cur.next()
        _, digits, npos = cur.expect("nat")
        significant = "".join(itertools.dropwhile(lambda ch: int(ch) == 0, digits))
        offset = int(significant or "0") if len(significant) <= 10 else _MAX_JUMP + 1
        if offset > _MAX_JUMP:
            raise ParseError(f"jump literal {digits} is too large", npos)
        return shared.get(offset) or shared.setdefault(offset, Jump(offset))
    if kind in ("+", "-", "ident"):
        cls = PosTest if kind == "+" else NegTest if kind == "-" else Plain
        if cls is not Plain:
            cur.next()
        basic = _parse_basic(cur)
        key = (cls, id(basic))  # the basic instruction is shared, so its id stands for it
        return shared.get(key) or shared.setdefault(key, cls(basic))
    raise ParseError(f"expected an instruction, found {value or 'end of input'!r}", pos)


def _parse_basic(cur: _Cursor) -> BasicInstruction:
    name, index = _parse_focus_name(cur)
    if cur.at("."):
        cur.next()
        reply = _parse_func(cur)
        cur.expect("/")
        effect = _parse_func(cur)
        key = (name, index, reply, effect)
        return cur.shared.get(key) or cur.shared.setdefault(
            key, RegisterAction(Focus(name, index), _FUNC_OF[reply], _FUNC_OF[effect])
        )
    if index is not None:
        tok = cur.peek()
        raise ParseError("indexed focus must name a register operation ('.')", tok[2])
    return cur.shared.get(name) or cur.shared.setdefault(name, AbstractAction(name))


def _parse_func(cur: _Cursor) -> str:
    """The token of a unary Boolean function: 0, 1, i or c."""
    kind, value, pos = cur.peek()
    if (kind == "nat" and value in ("0", "1")) or (kind == "ident" and value in ("i", "c")):
        cur.next()
        return value
    raise ParseError(f"expected a register operation token 0, 1, i or c, found {value!r}", pos)


def parse_register_family(text: str) -> RegisterFamilyTerm:
    cur = _Cursor(text)
    term = _parse_family(cur)
    if not cur.done():
        tok = cur.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return term


def _parse_family(cur: _Cursor) -> RegisterFamilyTerm:
    operands = [_parse_family_primary(cur)]
    while cur.at("+"):
        cur.next()
        operands.append(_parse_family_primary(cur))
    family = operands[-1]
    for left in reversed(operands[:-1]):
        family = ComposeFamily(left, family)
    return family


def _parse_family_primary(cur: _Cursor) -> RegisterFamilyTerm:
    kind, value, pos = cur.peek()
    if kind == "ident" and value == "hide":
        cur.next()
        cur.expect("{")
        hidden = [Focus(*_parse_focus_name(cur))]
        while cur.at(","):
            cur.next()
            hidden.append(Focus(*_parse_focus_name(cur)))
        cur.expect("}")
        _, _, open_pos = cur.expect("(")
        cur.enter(open_pos)
        body = _parse_family(cur)
        cur.expect(")")
        cur.leave()
        return HideFamily(frozenset(hidden), body)
    if kind == "{":
        cur.next()
        if cur.at("}"):
            cur.next()
            return EmptyFamily()
        bindings = [_parse_binding(cur)]
        while cur.at(","):
            cur.next()
            bindings.append(_parse_binding(cur))
        cur.expect("}")
        family: RegisterFamilyTerm = bindings[-1]
        for binding in reversed(bindings[:-1]):
            family = ComposeFamily(binding, family)
        return family
    if kind == "(":
        cur.next()
        cur.enter(pos)
        inner = _parse_family(cur)
        cur.expect(")")
        cur.leave()
        return inner
    raise ParseError(f"expected a register family, found {value or 'end of input'!r}", pos)


def _parse_focus_name(cur: _Cursor) -> tuple[str, Optional[int]]:
    """The name and the index, if any, of a focus such as ``aux:3``."""
    _, name, _ = cur.expect("ident")
    index = None
    if cur.at(":"):
        cur.next()
        _, digits, ipos = cur.expect("nat")
        try:
            index = int(digits)
        except ValueError:  # past int's digit limit
            raise ParseError(f"focus index {digits} has too many digits", ipos) from None
        if index < 1:
            raise ParseError("focus index must be >= 1", ipos)
    return name, index


def _parse_binding(cur: _Cursor) -> SingletonFamily:
    focus = Focus(*_parse_focus_name(cur))
    cur.expect("=")
    kind, value, pos = cur.peek()
    if kind == "nat" and value in ("0", "1"):
        cur.next()
        return SingletonFamily(focus, _CONTENT_OF[value])
    if kind == "-":
        cur.next()
        return SingletonFamily(focus, RegisterContent.INOPERATIVE)
    raise ParseError(f"expected register content 0, 1 or -, found {value!r}", pos)


# ---------------------------------------------------------------------------
# use, apply and simulate over the whole family


def family_key(family: RegisterFamily) -> tuple:
    """Hashable canonical view, for use as a state-space component."""
    return tuple(sorted(family.items(), key=lambda kv: focus_sort_key(kv[0])))


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
        reply = _register_step(action, fam)
        if reply is None:
            nodes.append(Dead())
            continue
        succ = state_id(node.on_true if reply else node.on_false, family_key(fam))
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
        reply = _register_step(action, fam)
        if reply is None:
            return {}
        state = node.on_true if reply else node.on_false


def simulate(
    t: InstructionSequenceTerm, family: RegisterFamily, fuel: int
) -> tuple[Outcome, RegisterFamily]:
    """Cursor-over-expansion execution without any algebraic machinery.

    Every executed primitive instruction consumes one unit of fuel.  An
    unknown focus or an inoperative register makes execution stick, which
    reports as inaction.  A position q past the m + k stored ones reads
    position m + (q - m) mod k of the repeating part, so a long jump
    unfolds nothing.
    """
    if fuel < 0:
        raise ValueError("fuel must be a natural number")
    prefix, period = flatten(t)
    seq = prefix + period
    m, total, k = len(prefix), len(seq), len(period)
    fam = dict(family)
    q = 0  # 0-based index of the next instruction
    while True:
        if fuel <= 0:
            return Outcome.FUEL_EXHAUSTED, fam
        if q >= total:
            if not k:
                return Outcome.INACTIVE, fam
            q = m + (q - m) % k
        instr = seq[q]
        fuel -= 1
        if isinstance(instr, Halt):
            return Outcome.TERMINATED, fam
        if isinstance(instr, Jump):
            if instr.offset == 0:
                return Outcome.INACTIVE, fam
            q += instr.offset
            continue
        basic = instr.basic
        if not isinstance(basic, RegisterAction):
            raise ValueError(f"cannot execute abstract action {basic}")
        if basic.focus not in fam:
            return Outcome.INACTIVE, fam
        reply = _register_step(basic, fam)
        if reply is None:
            return Outcome.INACTIVE, fam
        if isinstance(instr, Plain):
            q += 1
        elif isinstance(instr, PosTest):
            q += 1 if reply else 2
        else:
            q += 2 if reply else 1


# ---------------------------------------------------------------------------
# abstraction from internal steps, and compiling a table


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
# test conveniences


def content_of_bit(bit: bool) -> RegisterContent:
    return RegisterContent.ONE if bit else RegisterContent.ZERO


def iter_basics(t: InstructionSequenceTerm) -> Iterator[BasicInstruction]:
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Concat):
            stack.extend((node.right, node.left))
        elif isinstance(node, Repeat):
            stack.append(node.body)
        elif isinstance(node, (Plain, PosTest, NegTest)):
            yield node.basic


def compose(left: RegisterFamily, right: RegisterFamily) -> RegisterFamily:
    """Union of two families; same-name registers collapse to inoperative."""
    out = dict(left)
    for focus, content in right.items():
        out[focus] = RegisterContent.INOPERATIVE if focus in out else content
    return out


def hopcroft_classes(nodes: Sequence[Node]) -> list[int]:
    """Class index per state by ``threads._classes``, from one label per
    kind, numbered by first occurrence; equal class means bisimilar."""
    kinds, _, *graph = _arrays(nodes)
    number: dict = {}
    return _classes([number.setdefault(kind, len(number)) for kind in kinds], *graph)
