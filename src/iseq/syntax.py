"""Concrete syntax and AST for instruction sequences, register families and
function tables.

The surface syntax is plain ASCII:

    sequences   -a;#2;(+b;#2)*          f.p/q with p,q in {0,1,i,c}
    families    {aux:1=0, out:2=1}      hide{f}({f=1} + {g=0})
    tables      inputs 2 outputs 1      one line `bits -> bits|_` per input

Concatenation (`;`) parses right-associatively; a repetition star binds to
the directly preceding atom.  Rendering is deterministic and satisfies
``parse(render(x)) == x`` for every AST value.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union


class ParseError(ValueError):
    """Syntax error with a character position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# unary Boolean functions and register contents


class UnaryBoolFunc(enum.Enum):
    """The four functions from {0,1} to {0,1}, keyed by their source token."""

    CONST_FALSE = "0"
    CONST_TRUE = "1"
    IDENTITY = "i"
    COMPLEMENT = "c"

    def __call__(self, b: bool) -> bool:
        if self is UnaryBoolFunc.CONST_FALSE:
            return False
        if self is UnaryBoolFunc.CONST_TRUE:
            return True
        if self is UnaryBoolFunc.IDENTITY:
            return b
        return not b

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


def content_of_bit(bit: bool) -> RegisterContent:
    return RegisterContent.ONE if bit else RegisterContent.ZERO


# ---------------------------------------------------------------------------
# foci and basic instructions


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True)
class AbstractAction:
    """Uninterpreted basic instruction of the generic theory (a bare name)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
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


BasicInstruction = Union[AbstractAction, RegisterAction]


# ---------------------------------------------------------------------------
# primitive instructions and sequence terms


@dataclass(frozen=True)
class Plain:
    basic: BasicInstruction

    def __str__(self) -> str:
        return str(self.basic)


@dataclass(frozen=True)
class PosTest:
    basic: BasicInstruction

    def __str__(self) -> str:
        return f"+{self.basic}"


@dataclass(frozen=True)
class NegTest:
    basic: BasicInstruction

    def __str__(self) -> str:
        return f"-{self.basic}"


@dataclass(frozen=True)
class Jump:
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("jump offset must be a natural number")

    def __str__(self) -> str:
        return f"#{self.offset}"


@dataclass(frozen=True)
class Halt:
    def __str__(self) -> str:
        return "!"


PrimitiveInstruction = Union[Plain, PosTest, NegTest, Jump, Halt]


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


@dataclass(frozen=True, eq=False, repr=False)
class Concat(_Pair):
    left: "InstructionSequenceTerm"
    right: "InstructionSequenceTerm"


@dataclass(frozen=True)
class Repeat:
    body: "InstructionSequenceTerm"


InstructionSequenceTerm = Union[PrimitiveInstruction, Concat, Repeat]


def is_primitive(t: InstructionSequenceTerm) -> bool:
    return isinstance(t, (Plain, PosTest, NegTest, Jump, Halt))


def concat_all(instrs) -> InstructionSequenceTerm:
    """Right-nested concatenation of a nonempty iterable of terms."""
    items = list(instrs)
    if not items:
        raise ValueError("cannot build an empty instruction sequence")
    term = items[-1]
    for item in reversed(items[:-1]):
        term = Concat(item, term)
    return term


def leaves(t: InstructionSequenceTerm) -> list[PrimitiveInstruction]:
    """Leaf instructions of a repetition-free term, in order."""
    out: list[PrimitiveInstruction] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Concat):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Repeat):
            raise ValueError("term has a repeating part")
        else:
            out.append(node)
    return out


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


# ---------------------------------------------------------------------------
# register family terms


@dataclass(frozen=True)
class EmptyFamily:
    pass


@dataclass(frozen=True)
class SingletonFamily:
    focus: Focus
    content: RegisterContent


@dataclass(frozen=True, eq=False, repr=False)
class ComposeFamily(_Pair):
    left: "RegisterFamilyTerm"
    right: "RegisterFamilyTerm"


@dataclass(frozen=True)
class HideFamily:
    hidden: frozenset[Focus]
    body: "RegisterFamilyTerm"


RegisterFamilyTerm = Union[EmptyFamily, SingletonFamily, ComposeFamily, HideFamily]


# ---------------------------------------------------------------------------
# function tables


@dataclass(frozen=True)
class FunctionTable:
    """Explicit partial function from n-bit strings to m-bit strings.

    ``outputs[v]`` is the output row for the input whose bits spell the
    integer ``v`` (big-endian), or None where the function is undefined.
    """

    n: int
    m: int
    outputs: tuple[Optional[str], ...]

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("table arity must be natural")
        if len(self.outputs) != 2**self.n:
            raise ValueError(f"table needs {2 ** self.n} rows, got {len(self.outputs)}")
        for out in self.outputs:
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


def table_from_rows(n: int, m: int, rows: dict[str, Optional[str]]) -> FunctionTable:
    outputs: list[Optional[str]] = []
    for v in range(2**n):
        bits = format(v, f"0{n}b") if n else ""
        if bits not in rows:
            raise ValueError(f"missing table row for input {bits!r}")
        outputs.append(rows[bits])
    if len(rows) != 2**n:
        extra = set(rows) - {format(v, f"0{n}b") if n else "" for v in range(2**n)}
        raise ValueError(f"unexpected table rows: {sorted(extra)}")
    return FunctionTable(n, m, tuple(outputs))


# ---------------------------------------------------------------------------
# tokenizer


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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


# deepest nesting of parentheses (and so of repetitions and encapsulations)
# the parsers accept; it keeps every recursive walk of a parsed term far
# from the interpreter's recursion limit
MAX_NESTING = 100


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek()[0] == kind

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
    if kind == "!":
        cur.next()
        return Halt()
    if kind == "#":
        cur.next()
        _, digits, npos = cur.expect("nat")
        offset = int(digits)
        if offset > _MAX_JUMP:
            raise ParseError(f"jump literal {digits} is too large", npos)
        return Jump(offset)
    if kind == "+":
        cur.next()
        return PosTest(_parse_basic(cur))
    if kind == "-":
        cur.next()
        return NegTest(_parse_basic(cur))
    if kind == "ident":
        return Plain(_parse_basic(cur))
    raise ParseError(f"expected an instruction, found {value or 'end of input'!r}", pos)


def _parse_basic(cur: _Cursor) -> BasicInstruction:
    _, name, pos = cur.expect("ident")
    index = None
    if cur.at(":"):
        cur.next()
        _, digits, ipos = cur.expect("nat")
        index = int(digits)
        if index < 1:
            raise ParseError("focus index must be >= 1", ipos)
    if cur.at("."):
        cur.next()
        reply = _parse_func(cur)
        cur.expect("/")
        effect = _parse_func(cur)
        return RegisterAction(Focus(name, index), reply, effect)
    if index is not None:
        tok = cur.peek()
        raise ParseError("indexed focus must name a register operation ('.')", tok[2])
    return AbstractAction(name)


def _parse_func(cur: _Cursor) -> UnaryBoolFunc:
    kind, value, pos = cur.peek()
    if kind == "nat" and value in ("0", "1"):
        cur.next()
        return UnaryBoolFunc(value)
    if kind == "ident" and value in ("i", "c"):
        cur.next()
        return UnaryBoolFunc(value)
    raise ParseError(f"expected a register operation token 0, 1, i or c, found {value!r}", pos)


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
        hidden = [_parse_focus(cur)]
        while cur.at(","):
            cur.next()
            hidden.append(_parse_focus(cur))
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


def _parse_focus(cur: _Cursor) -> Focus:
    _, name, _ = cur.expect("ident")
    index = None
    if cur.at(":"):
        cur.next()
        _, digits, ipos = cur.expect("nat")
        index = int(digits)
        if index < 1:
            raise ParseError("focus index must be >= 1", ipos)
    return Focus(name, index)


def _parse_binding(cur: _Cursor) -> SingletonFamily:
    focus = _parse_focus(cur)
    cur.expect("=")
    kind, value, pos = cur.peek()
    if kind == "nat" and value in ("0", "1"):
        cur.next()
        return SingletonFamily(focus, RegisterContent(value))
    if kind == "-":
        cur.next()
        return SingletonFamily(focus, RegisterContent.INOPERATIVE)
    raise ParseError(f"expected register content 0, 1 or -, found {value!r}", pos)


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
        if out == "_":
            rows[bits] = None
        else:
            if len(out) != m or set(out) - {"0", "1"}:
                raise ValueError(f"output {out!r} is not a {m}-bit string")
            rows[bits] = out
    return table_from_rows(n, m, rows)


def render_function_table(table: FunctionTable) -> str:
    lines = [f"inputs {table.n} outputs {table.m}"]
    for bits, out in table.rows():
        lines.append(f"{bits} -> {out if out is not None else '_'}")
    return "\n".join(lines) + "\n"
