"""Concrete syntax and AST for instruction sequences, register families and
function tables.

The surface syntax is plain ASCII:

    sequences   -a;#2;(+b;#2)*          f.p/q with p,q in {0,1,i,c}
    families    {aux:1=0, out:2=1}      hide{f}({f=1} + {g=0})
    tables      inputs 2 outputs 1      one line `bits -> bits|_` per input

Concatenation (`;`) parses right-associatively; a repetition star binds to
the directly preceding atom.  Rendering is deterministic and satisfies
``parse(render(x)) == x`` for every AST value with jumps of at most 10**9.

Sequences and families are read by one cursor over a list of token
strings, which one regular expression cuts from the text: a token's first
character tells its kind, and a character position is worked out only for
a ``ParseError``.
"""

from __future__ import annotations

import enum
import itertools
import re
import threading
from dataclasses import dataclass
from typing import Iterator, Optional


class ParseError(ValueError):
    """Syntax error with a character position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# unary Boolean functions and register contents


# the truth table of each unary Boolean function by its token: (f(0), f(1))
_TRUTH = {"0": (False, False), "1": (True, True), "i": (False, True), "c": (True, False)}


class UnaryBoolFunc(enum.Enum):
    """The four functions from {0,1} to {0,1}, keyed by their source token."""

    CONST_FALSE = "0"
    CONST_TRUE = "1"
    IDENTITY = "i"
    COMPLEMENT = "c"

    def __call__(self, b: bool) -> bool:
        return _TRUTH[self._value_][b]

    @property
    def token(self) -> str:
        return self.value


F0 = UnaryBoolFunc.CONST_FALSE
T1 = UnaryBoolFunc.CONST_TRUE
ID = UnaryBoolFunc.IDENTITY
CM = UnaryBoolFunc.COMPLEMENT


class RegisterContent(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INOPERATIVE = "-"

    @property
    def token(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# foci and basic instructions


@dataclass(frozen=True, order=True, slots=True)
class Focus:
    """Name of a Boolean register, e.g. ``aux:3`` or a bare ``f``."""

    name: str
    index: Optional[int] = None

    def __post_init__(self):
        if self.index is not None and self.index < 1:
            raise ValueError(f"focus index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}:{self.index}"


@dataclass(frozen=True, slots=True)
class AbstractAction:
    """Uninterpreted basic instruction of the generic theory (a bare name)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RegisterAction:
    """Basic Boolean register instruction ``f.p/q``.

    Executing it replies ``reply(content)`` and overwrites the register
    content with ``effect(content)``.
    """

    focus: Focus
    reply: UnaryBoolFunc
    effect: UnaryBoolFunc

    def __str__(self) -> str:
        return f"{self.focus}.{self.reply.token}/{self.effect.token}"


BasicInstruction = AbstractAction | RegisterAction


# ---------------------------------------------------------------------------
# primitive instructions and sequence terms


@dataclass(frozen=True, slots=True)
class Plain:
    basic: BasicInstruction

    def __str__(self) -> str:
        return str(self.basic)


@dataclass(frozen=True, slots=True)
class PosTest:
    basic: BasicInstruction

    def __str__(self) -> str:
        return f"+{self.basic}"


@dataclass(frozen=True, slots=True)
class NegTest:
    basic: BasicInstruction

    def __str__(self) -> str:
        return f"-{self.basic}"


@dataclass(frozen=True, slots=True)
class Jump:
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("jump offset must be a natural number")

    def __str__(self) -> str:
        return f"#{self.offset}"


@dataclass(frozen=True, slots=True)
class Halt:
    def __str__(self) -> str:
        return "!"


PrimitiveInstruction = Plain | PosTest | NegTest | Jump | Halt

# How far an instruction that acts moves on after a true and a false reply
_EXITS = {Plain: (1, 1), PosTest: (1, 2), NegTest: (2, 1)}


def _preorder(node, cls):
    """Nodes of a tree of ``cls`` pairs in pre-order, ``cls`` itself marking
    each pair, which makes the sequence determine the tree."""
    stack = [node]
    while stack:
        node = stack.pop()
        if type(node) is cls:
            yield cls
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


def _from_preorder(cls, items):
    """The tree of ``cls`` pairs whose ``_preorder`` walk is ``items``."""
    stack = []
    for item in reversed(items):
        if item is cls:
            left = stack.pop()
            stack.append(cls(left, stack.pop()))
        else:
            stack.append(item)
    return stack[0]


class _Pair:
    """``==``, ``hash``, ``repr`` and pickling of a binary node by an
    explicit-stack walk, so a long composition never reaches the
    interpreter's recursion limit.  ``repr`` gives the dataclass text."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        cls, end = type(self), object()
        pairs = itertools.zip_longest(_preorder(self, cls), _preorder(other, cls), fillvalue=end)
        return all(a == b for a, b in pairs)

    def __hash__(self):
        return hash(tuple(_preorder(self, type(self))))

    def __repr__(self):
        cls = type(self)
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if type(node) is str:
                parts.append(node)
            elif type(node) is cls:
                parts.append(f"{cls.__qualname__}(left=")
                stack += [")", node.right, ", right=", node.left]
            else:
                parts.append(repr(node))
        return "".join(parts)

    def __reduce__(self):
        return _from_preorder, (type(self), tuple(_preorder(self, type(self))))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Concat(_Pair):
    left: "InstructionSequenceTerm"
    right: "InstructionSequenceTerm"


@dataclass(frozen=True, slots=True)
class Repeat:
    body: "InstructionSequenceTerm"


InstructionSequenceTerm = PrimitiveInstruction | Concat | Repeat


def is_primitive(t: InstructionSequenceTerm) -> bool:
    return isinstance(t, (Plain, PosTest, NegTest, Jump, Halt))


def concat_all(instrs) -> InstructionSequenceTerm:
    """Right-nested concatenation of a nonempty iterable of terms."""
    items = list(instrs)
    if not items:
        raise ValueError("cannot build an empty instruction sequence")
    return _fold_right(Concat, items)


def _fold_right(cls, items: list):
    """``cls(items[0], cls(items[1], ... items[-1]))`` of a nonempty list."""
    term = items[-1]
    for item in reversed(items[:-1]):
        term = cls(item, term)
    return term


def _relocate(blocks: list[list]) -> InstructionSequenceTerm:
    """The blocks laid out one after another.  An int slot ``b`` in a block
    is a jump to the start of block ``b``: past the last block, ``b`` counts
    positions past the end; a block before the jump is reached by wrapping
    around the whole program, as it is inside the program's repetition.
    Like a parse, the program shares one ``Jump`` object per offset."""
    total = len(blocks)
    starts = list(itertools.accumulate(map(len, blocks), initial=0))
    jumps: dict[int, Jump] = {}
    out: list[PrimitiveInstruction] = []
    for slots in blocks:
        for slot in slots:
            if type(slot) is int:
                offset = (starts[slot] if slot < total else starts[total] + slot - total) - len(out)
                if offset < 0:
                    offset += starts[total]
                slot = jumps.get(offset) or jumps.setdefault(offset, Jump(offset))
            out.append(slot)
    return concat_all(out)


def flatten(
    t: InstructionSequenceTerm,
) -> tuple[list[PrimitiveInstruction], list[PrimitiveInstruction]]:
    """Term -> (finite part, repeating part); repeating part may be empty.

    The one linearization of a term.  Concatenation after an infinite
    sequence is dropped and repetition of an infinite sequence is the
    sequence itself, matching the intended sequence model of the axioms.
    Each call returns new lists.
    """
    prefix, period = _flat(t)
    return list(prefix), list(period)


def leaves(t: InstructionSequenceTerm) -> list[PrimitiveInstruction]:
    """Leaf instructions of a repetition-free term, in order."""
    prefix, period = _flat(t)
    if period:  # a repetition's body is never empty
        raise ValueError("term has a repeating part")
    return list(prefix)


def _walk(t: InstructionSequenceTerm) -> tuple[tuple, tuple]:
    """``flatten(t)`` as tuples.  The walk is iterative at any nesting
    depth: a repetition drops the rest of the stack, notes where its body
    starts and walks the body, so the last repetition met starts the
    period."""
    seq: list[PrimitiveInstruction] = []
    start = -1
    stack = [t]
    while stack:
        node = stack.pop()
        # walk the right spine; only a composite left operand is stacked
        while type(node) is Concat:
            left = node.left
            if type(left) is Concat or type(left) is Repeat:
                stack.append(node.right)
                node = left
            else:
                seq.append(left)
                node = node.right
        if type(node) is Repeat:
            # whatever follows an infinite sequence is unreachable
            stack = [node.body]
            start = len(seq)
        else:
            seq.append(node)
    if start < 0:
        return tuple(seq), ()
    return tuple(seq[:start]), tuple(seq[start:])


# The intermediate forms of the last few terms asked about, so that asking
# several questions about one term flattens it, writes its position graph,
# derives its second canonical form, and decodes it as a program and runs
# its rows (when they fit in one chunk) under one convention once.  An
# entry keeps its term alive until it is dropped.
_MEMO_TERMS = 4
_memo: dict[int, list] = {}
_memo_lock = threading.Lock()


def _entry(t: InstructionSequenceTerm) -> list:
    """The memo entry ``[t, flat parts, forms]`` of a term.

    It is keyed by ``id(t)`` and holds ``t``, so no other object can take
    that id while the entry lives.  A term asked about moves to the end,
    and past ``_MEMO_TERMS`` entries the oldest is dropped.  The flat parts
    are ``flatten(t)`` as tuples; ``forms`` maps each name ``_form`` is
    asked for to a pair ``(given, form)``: ``"graph"``, ``"second"``, and
    ``"program"`` and ``"rows"`` with their ``IoConvention``, rows only for
    a run that fits in one chunk.
    """
    key = id(t)
    with _memo_lock:
        entry = _memo.pop(key, None)
        if entry is None or entry[0] is not t:
            entry = [t, None, {}]
        _memo[key] = entry
        if len(_memo) > _MEMO_TERMS:
            del _memo[next(iter(_memo))]
    if entry[1] is None:
        entry[1] = _walk(t)
    return entry


def _flat(t: InstructionSequenceTerm) -> tuple[tuple, tuple]:
    """``flatten(t)`` as shared tuples from the memo, for reading only."""
    return _entry(t)[1]


def _form(t: InstructionSequenceTerm, name: str, derive, given=None):
    """``derive(prefix, period)`` of the flat parts of ``t``, kept in its
    memo entry under ``name`` together with ``given``, for reading only.

    A form kept with another ``given`` is derived again and replaced, so a
    name keeps one form at a time, and a ``derive`` that raises keeps
    nothing.  Nothing kept is ever changed, only replaced whole, so two
    threads deriving one form at once keep equal values.
    """
    entry = _entry(t)
    kept = entry[2].get(name)
    if kept is None or kept[0] != given:
        kept = entry[2][name] = given, derive(*entry[1])
    return kept[1]


# ---------------------------------------------------------------------------
# register family terms


@dataclass(frozen=True, slots=True)
class EmptyFamily:
    pass


@dataclass(frozen=True, slots=True)
class SingletonFamily:
    focus: Focus
    content: RegisterContent


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class ComposeFamily(_Pair):
    left: "RegisterFamilyTerm"
    right: "RegisterFamilyTerm"


@dataclass(frozen=True, slots=True)
class HideFamily:
    hidden: frozenset[Focus]
    body: "RegisterFamilyTerm"


RegisterFamilyTerm = EmptyFamily | SingletonFamily | ComposeFamily | HideFamily


# ---------------------------------------------------------------------------
# function tables


@dataclass(frozen=True, slots=True)
class FunctionTable:
    """Explicit partial function from n-bit strings to m-bit strings.

    ``outputs[v]`` is the output row for the input whose bits spell the
    integer ``v`` (big-endian), or None where the function is undefined.
    """

    n: int
    m: int
    outputs: tuple[Optional[str], ...]

    def __post_init__(self):
        _check_shape(self.n, self.m, len(self.outputs))
        for out in dict.fromkeys(self.outputs):  # each distinct output once, in row order
            if out is not None and (len(out) != self.m or set(out) - {"0", "1"}):
                raise ValueError(f"output {out!r} is not a {self.m}-bit string")

    def inputs(self) -> Iterator[str]:
        for v in range(2**self.n):
            yield format(v, f"0{self.n}b") if self.n else ""

    def rows(self) -> Iterator[tuple[str, Optional[str]]]:
        for v, bits in enumerate(self.inputs()):
            yield bits, self.outputs[v]

    def value(self, bits: str) -> Optional[str]:
        if len(bits) != self.n or set(bits) - {"0", "1"}:
            raise ValueError(f"{bits!r} is not a {self.n}-bit input")
        return self.outputs[int(bits, 2)] if bits else self.outputs[0]


def _check_shape(n: int, m: int, count: int) -> None:
    """Refuse a negative arity, or a row count other than 2**n; 2**n is
    only computed once the count's bit length shows that n is small."""
    if n < 0 or m < 0:
        raise ValueError("table arity must be natural")
    if count.bit_length() != n + 1 or count != 2**n:
        raise ValueError(f"table needs 2**{n} rows, got {count}")


def table_from_rows(n: int, m: int, rows: dict[str, Optional[str]]) -> FunctionTable:
    _check_shape(n, m, len(rows))
    outputs: list[Optional[str]] = []
    for v in range(2**n):  # there are 2**n keys, so one that is not a row leaves a row missing
        bits = format(v, f"0{n}b") if n else ""
        if bits not in rows:
            raise ValueError(f"missing table row for input {bits!r}")
        outputs.append(rows[bits])
    return FunctionTable(n, m, tuple(outputs))


# ---------------------------------------------------------------------------
# tokens and the cursor both parsers read them through


# A token is its text: a punctuation character, a numeral of decimal digits
# or an identifier, and ``\S`` takes any other character.  Over all code
# points ``\s``, ``\d`` and ``\w`` match exactly what ``str.isspace``,
# ``str.isdecimal`` and ``str.isalnum`` (or "_") admit, so a numeral holds
# what ``int`` reads as digits; but ``[^\W\d]`` also admits numeric
# characters such as '²' or '½', which an identifier may hold but not start.
_PUNCT = ";*()#!+-.:/{}=,"
_TOKEN = re.compile(rf"[{re.escape(_PUNCT)}]|\d+|[^\W\d]\w*|\S")
_STRAY = re.compile(rf"[^\s\w{re.escape(_PUNCT)}]")  # a character no token may hold


def _position(text: str, index: int) -> int:
    """Character position of token ``index`` of ``text``, its length past the last."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    return match.start() if match else len(text)


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``, then "" for its end.  A character that may
    not start a token is refused before any parsing, at its own position;
    in ASCII text only a stray character can be one."""
    tokens = _TOKEN.findall(text)
    if not text.isascii() or _STRAY.search(text):
        for index, tok in enumerate(tokens):
            ch = tok[0]
            if not (ch in _PUNCT or ch.isdecimal() or ch.isalpha() or ch == "_"):
                raise ParseError(f"unexpected character {ch!r}", _position(text, index))
    tokens.append("")
    return tokens


def _is_ident(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


# enum members by source token; a table lookup is much cheaper than the call
_FUNC_OF = {f.token: f for f in UnaryBoolFunc}
_CONTENT_OF = {c.token: c for c in RegisterContent}

# deepest nesting of parentheses (and so of repetitions and encapsulations)
# the parsers accept; it keeps every recursive walk of a parsed term far
# from the interpreter's recursion limit
MAX_NESTING = 100


class _Cursor:
    """The tokens of one parse and the index of the next; positions are
    found only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self.pos = 0
        self.depth = 0
        # one object per distinct instruction and per focus of this parse, by source key
        self.shared: dict = {}

    def fail(self, message: str, index: Optional[int] = None) -> ParseError:
        """An error at token ``index``, by default the next one."""
        return ParseError(message, _position(self.text, self.pos if index is None else index))

    def skip(self, tok: str) -> bool:
        """Whether the next token is ``tok``; if so, it is read."""
        if self.tokens[self.pos] == tok:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> str:
        """The next token, which must be ``kind``: 'nat', 'ident' or itself."""
        tok = self.tokens[self.pos]
        if not (tok.isdecimal() if kind == "nat" else _is_ident(tok) if kind == "ident" else tok == kind):
            raise self.fail(f"expected {kind!r}, found {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def inside(self, parse):
        """``parse`` of what follows the "(" just read, up to its ")", one
        level deeper; a level past ``MAX_NESTING`` is refused."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels", self.pos - 1)
        inner = parse(self)
        self.expect(")")
        self.depth -= 1
        return inner

    def finish(self, term):
        """``term``, once no token follows it."""
        if self.tokens[self.pos]:
            raise self.fail(f"trailing input {self.tokens[self.pos]!r}")
        return term


# ---------------------------------------------------------------------------
# instruction sequence parser

_MAX_JUMP = 10**9


def parse_instruction_sequence(text: str) -> InstructionSequenceTerm:
    cur = _Cursor(text)
    return cur.finish(_parse_seq(cur))


def _parse_seq(cur: _Cursor) -> InstructionSequenceTerm:
    items = []
    while not items or cur.skip(";"):
        atom = _parse_atom(cur)
        items.append(Repeat(atom) if cur.skip("*") else atom)
    return concat_all(items)


def _parse_atom(cur: _Cursor) -> InstructionSequenceTerm:
    tok = cur.tokens[cur.pos]
    shared = cur.shared
    if tok == "(":
        cur.pos += 1
        return cur.inside(_parse_seq)
    if tok == "!":
        cur.pos += 1
        return shared.get(Halt) or shared.setdefault(Halt, Halt())
    if tok == "#":
        cur.pos += 1
        digits = cur.expect("nat")
        offset = int(digits)
        if offset > _MAX_JUMP:
            raise cur.fail(f"jump literal {digits} is too large", cur.pos - 1)
        return shared.get(offset) or shared.setdefault(offset, Jump(offset))
    if tok == "+" or tok == "-" or _is_ident(tok):
        cls = PosTest if tok == "+" else NegTest if tok == "-" else Plain
        if cls is not Plain:
            cur.pos += 1
        basic = _parse_basic(cur)
        key = (cls, id(basic))  # the basic instruction is shared, so its id stands for it
        return shared.get(key) or shared.setdefault(key, cls(basic))
    raise cur.fail(f"expected an instruction, found {tok or 'end of input'!r}")


def _parse_basic(cur: _Cursor) -> BasicInstruction:
    focus = _parse_focus(cur)
    if cur.skip("."):
        reply = _parse_func(cur)
        cur.expect("/")
        effect = _parse_func(cur)
        key = (id(focus), reply, effect)  # the focus is shared, so its id stands for it
        return cur.shared.get(key) or cur.shared.setdefault(
            key, RegisterAction(focus, _FUNC_OF[reply], _FUNC_OF[effect])
        )
    if focus.index is not None:
        raise cur.fail("indexed focus must name a register operation ('.')")
    return cur.shared.get(focus.name) or cur.shared.setdefault(focus.name, AbstractAction(focus.name))


def _parse_func(cur: _Cursor) -> str:
    """The token of a unary Boolean function: 0, 1, i or c."""
    tok = cur.tokens[cur.pos]
    if tok not in _FUNC_OF:
        raise cur.fail(f"expected a register operation token 0, 1, i or c, found {tok!r}")
    cur.pos += 1
    return tok


# ---------------------------------------------------------------------------
# instruction sequence renderer


def render_term(t: InstructionSequenceTerm) -> str:
    parts = []
    node = t
    while isinstance(node, Concat):
        parts.append(_render_item(node.left))
        node = node.right
    parts.append(_render_item(node))
    return ";".join(parts)


def _render_item(t: InstructionSequenceTerm) -> str:
    if isinstance(t, Repeat):
        if is_primitive(t.body):
            return f"{t.body}*"
        return f"({render_term(t.body)})*"
    if isinstance(t, Concat):
        return f"({render_term(t)})"
    return str(t)


# ---------------------------------------------------------------------------
# register family parser / renderer


def parse_register_family(text: str) -> RegisterFamilyTerm:
    cur = _Cursor(text)
    return cur.finish(_parse_family(cur))


def _parse_family(cur: _Cursor) -> RegisterFamilyTerm:
    operands = [_parse_family_primary(cur)]
    while cur.skip("+"):
        operands.append(_parse_family_primary(cur))
    return _fold_right(ComposeFamily, operands)


def _parse_family_primary(cur: _Cursor) -> RegisterFamilyTerm:
    tok = cur.tokens[cur.pos]
    if tok == "hide":
        cur.pos += 1
        cur.expect("{")
        hidden = [_parse_focus(cur)]
        while cur.skip(","):
            hidden.append(_parse_focus(cur))
        cur.expect("}")
        cur.expect("(")
        return HideFamily(frozenset(hidden), cur.inside(_parse_family))
    if tok == "{":
        cur.pos += 1
        if cur.skip("}"):
            return EmptyFamily()
        bindings = [_parse_binding(cur)]
        while cur.skip(","):
            bindings.append(_parse_binding(cur))
        cur.expect("}")
        return _fold_right(ComposeFamily, bindings)
    if tok == "(":
        cur.pos += 1
        return cur.inside(_parse_family)
    raise cur.fail(f"expected a register family, found {tok or 'end of input'!r}")


def _parse_focus(cur: _Cursor) -> Focus:
    """A focus such as ``aux:3``, one object per focus in a parse."""
    name = cur.expect("ident")
    index = None
    if cur.skip(":"):
        index = int(cur.expect("nat"))
        if index < 1:
            raise cur.fail("focus index must be >= 1", cur.pos - 1)
    key = (name, index)
    return cur.shared.get(key) or cur.shared.setdefault(key, Focus(name, index))


def _parse_binding(cur: _Cursor) -> SingletonFamily:
    focus = _parse_focus(cur)
    cur.expect("=")
    content = _CONTENT_OF.get(cur.tokens[cur.pos])
    if content is None:
        raise cur.fail(f"expected register content 0, 1 or -, found {cur.tokens[cur.pos]!r}")
    cur.pos += 1
    return SingletonFamily(focus, content)


def focus_sort_key(focus: Focus) -> tuple[str, int]:
    return (focus.name, focus.index or 0)


def render_family_term(t: RegisterFamilyTerm) -> str:
    # composition nests to the right: walk that spine in a loop, so a long
    # composition renders without deep recursion
    parts = []
    while isinstance(t, ComposeFamily):
        left = render_family_term(t.left)
        parts.append(f"({left})" if isinstance(t.left, ComposeFamily) else left)
        t = t.right
    if isinstance(t, EmptyFamily):
        parts.append("{}")
    elif isinstance(t, SingletonFamily):
        parts.append(f"{{{t.focus}={t.content.token}}}")
    else:
        inner = ", ".join(str(f) for f in sorted(t.hidden, key=focus_sort_key))
        parts.append(f"hide{{{inner}}}({render_family_term(t.body)})")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# function table text format


def parse_function_table(text: str) -> FunctionTable:
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ValueError("empty table: expected a header 'inputs <n> outputs <m>'")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "inputs" or header[2] != "outputs":
        raise ValueError(f"bad table header {lines[0]!r}")
    try:
        n, m = int(header[1]), int(header[3])
    except ValueError:
        raise ValueError(f"bad table header {lines[0]!r}") from None
    rows: dict[str, Optional[str]] = {}
    for line in lines[1:]:
        if "->" not in line:
            raise ValueError(f"bad table row {line!r}")
        left, right = line.split("->", 1)
        bits = left.strip()
        out = right.strip()
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"input {bits!r} is not a {n}-bit string")
        if bits in rows:
            raise ValueError(f"duplicate table row for input {bits!r}")
        rows[bits] = None if out == "_" else out  # FunctionTable checks each output
    return table_from_rows(n, m, rows)


def render_function_table(table: FunctionTable) -> str:
    lines = [f"inputs {table.n} outputs {table.m}"]
    for bits, out in table.rows():
        lines.append(f"{bits} -> {out if out is not None else '_'}")
    return "\n".join(lines) + "\n"
