"""Computing partial Boolean functions with instruction sequences.

A repetition-free program over the input/output/auxiliary register naming
convention computes a partial function when, for every defined input row,
running its behaviour against the loaded input and zeroed auxiliary
registers and then applying it to zeroed output registers yields exactly the
expected output family, and for every undefined row yields the empty
family.

Every check here runs that definition as one direct pass of a decoded
instruction array over all three register groups, which equals extract,
then ``use`` on the in/aux family, then ``apply`` on the out family.  The
two families are disjoint, so ``use`` carries out exactly the in/aux
actions, as internal steps, and leaves exactly the out actions for
``apply``, in the order the thread performs them.  Validation puts every
focus in the union, so neither step meets an unknown register.  Jumps only
go forward, so neither route can diverge: each run ends, within as many
steps as the program is long, in ``!`` or in inaction (``#0`` or running
past the end).  The algebraic route stays in ``interaction`` as the public
API and as the tests' oracle.

The module also provides the two constructive results: compiling an
explicit truth table to a program that uses only the core operations
(set-false 0/0, set-true 1/1, read i/i), and translating an arbitrary
program into a functionally equivalent core-only one.  The translation looks
up each instruction's behaviour in a table of shortest core blocks of at
most four slots, derived by brute force and committed as a literal; one
backward pass picks the blocks of least total length that fit together,
and the jumps are relocated.  Each non-core instruction thus grows the
program by at most three instructions, except where a skipping core test
directly precedes a block that cannot catch its skip and must take an
explicit jump: 36 of the 22,350 programs of length at most 2 over in:1,
out:1 and aux:1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .syntax import (
    F0,
    ID,
    T1,
    AbstractAction,
    Focus,
    FunctionTable,
    Halt,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    Plain,
    PosTest,
    PrimitiveInstruction,
    RegisterAction,
    UnaryBoolFunc,
    concat_all,
    leaves,
)


@dataclass(frozen=True)
class IoConvention:
    """Register naming convention: in:1..n, out:1..m, aux:1..k."""

    n: int
    m: int
    k: int = 0

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.k < 0:
            raise ValueError("register counts must be natural")

    def in_focus(self, i: int) -> Focus:
        return Focus("in", i)

    def out_focus(self, i: int) -> Focus:
        return Focus("out", i)

    def aux_focus(self, i: int) -> Focus:
        return Focus("aux", i)

    def check_focus(self, focus: Focus) -> None:
        if focus.name == "in" and focus.index is not None and focus.index <= self.n:
            return
        if focus.name == "out" and focus.index is not None and focus.index <= self.m:
            return
        if focus.name == "aux" and focus.index is not None and focus.index <= self.k:
            return
        raise ValueError(f"focus {focus} is outside the in/out/aux convention {self}")


def _validate_program(t: InstructionSequenceTerm, conv: IoConvention) -> list[PrimitiveInstruction]:
    try:
        instrs = leaves(t)
    except ValueError:
        raise ValueError("program must be repetition-free") from None
    for instr in instrs:
        if isinstance(instr, (Plain, PosTest, NegTest)):
            if isinstance(instr.basic, AbstractAction):
                raise ValueError(f"abstract action {instr.basic} is not a register instruction")
            conv.check_focus(instr.basic.focus)
    return instrs


# A decoded instruction is None for ``!``, its step for a jump (0 is
# inaction), or (slot, effect_on_0, effect_on_1, step_on_0, step_on_1) for a
# register instruction.  Register slots lay out in:1..n, out:1..m, aux:1..k.
_Op = Union[None, int, tuple]

# (effect_on_0, effect_on_1, step_on_0, step_on_1) of every register form
_BEHAVIOUR = {
    (kind, reply, effect): (
        effect(False),
        effect(True),
        *(1 if kind is Plain or reply(bit) == (kind is PosTest) else 2 for bit in (False, True)),
    )
    for kind in (Plain, PosTest, NegTest)
    for reply in UnaryBoolFunc
    for effect in UnaryBoolFunc
}


def _decode(instrs: Sequence[PrimitiveInstruction], conv: IoConvention) -> list[_Op]:
    """Instruction array of a validated program, for :func:`_run`."""
    base = {"in": 0, "out": conv.n, "aux": conv.n + conv.m}
    code: list[_Op] = []
    for instr in instrs:
        if isinstance(instr, Halt):
            code.append(None)
        elif isinstance(instr, Jump):
            code.append(instr.offset)
        else:
            action = instr.basic
            slot = base[action.focus.name] + action.focus.index - 1
            code.append((slot, *_BEHAVIOUR[type(instr), action.reply, action.effect]))
    return code


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


def _row_output(code: Sequence[_Op], conv: IoConvention, bits: str) -> Optional[str]:
    """Output bits computed on one input row, or None for the empty family."""
    regs = _start_row(conv, bits)
    if not _run(code, regs):
        return None
    return "".join("1" if bit else "0" for bit in regs[conv.n : conv.n + conv.m])


def induced_table(t: InstructionSequenceTerm, conv: IoConvention) -> FunctionTable:
    """The partial function a program computes under the convention.

    Meaningful for m >= 1; with no output registers the defined and
    undefined row conditions coincide, so no unique table exists.
    """
    if conv.m == 0:
        raise ValueError("programs without output registers induce no unique table")
    code = _decode(_validate_program(t, conv), conv)
    rows = (format(v, f"0{conv.n}b") if conv.n else "" for v in range(2**conv.n))
    return FunctionTable(conv.n, conv.m, tuple(_row_output(code, conv, bits) for bits in rows))


def computes_check(t: InstructionSequenceTerm, table: FunctionTable, k: int) -> bool:
    """Does the program compute the table, with k auxiliary registers?"""
    conv = IoConvention(table.n, table.m, k)
    code = _decode(_validate_program(t, conv), conv)
    if conv.m == 0:
        return True  # both row conditions require the empty family
    return all(_row_output(code, conv, bits) == expected for bits, expected in table.rows())


def functionally_equivalent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm, conv: IoConvention
) -> bool:
    """Do both programs compute one and the same partial function?"""
    if conv.m == 0:
        _validate_program(t, conv)
        _validate_program(t2, conv)
        return True  # every program computes every function onto zero outputs
    return induced_table(t, conv) == induced_table(t2, conv)


# ---------------------------------------------------------------------------
# truth table -> core-only program


_Label = tuple[str, str]
_Item = Union[PrimitiveInstruction, tuple]


def _assemble(items: Sequence[_Item]) -> list[PrimitiveInstruction]:
    """Resolve ('label', key) / ('goto', key) marks to forward jump literals."""
    positions: dict[_Label, int] = {}
    pos = 1
    for item in items:
        if isinstance(item, tuple) and item[0] == "label":
            if item[1] in positions:
                raise ValueError(f"duplicate label {item[1]!r}")
            positions[item[1]] = pos
        else:
            pos += 1
    out: list[PrimitiveInstruction] = []
    pos = 1
    for item in items:
        if isinstance(item, tuple) and item[0] == "label":
            continue
        if isinstance(item, tuple) and item[0] == "goto":
            target = positions[item[1]]
            if target < pos:
                raise ValueError("only forward jumps can be assembled")
            out.append(Jump(target - pos))
        else:
            out.append(item)
        pos += 1
    return out


def _core_read(conv_focus: Focus) -> RegisterAction:
    return RegisterAction(conv_focus, ID, ID)


def _leaf_instructions(conv: IoConvention, value: Optional[str]) -> list[PrimitiveInstruction]:
    if value is None:
        return [Jump(0)]
    instrs: list[PrimitiveInstruction] = [
        Plain(RegisterAction(conv.out_focus(i), T1, T1))
        for i, bit in enumerate(value, start=1)
        if bit == "1"
    ]
    instrs.append(Halt())
    return instrs


def compile_table(table: FunctionTable) -> InstructionSequenceTerm:
    """Repetition-free core-only program computing the table with no auxiliaries.

    A branching tree reads the inputs once; defined leaves set the 1-bits of
    the output (outputs start false) and terminate, undefined leaves jump
    nowhere, which is inaction.
    """
    conv = IoConvention(table.n, table.m, 0)
    if table.n == 0:
        return concat_all(_leaf_instructions(conv, table.outputs[0]))
    items: list[_Item] = []

    def child_key(prefix: str) -> _Label:
        return ("leaf", prefix) if len(prefix) == table.n else ("node", prefix)

    for depth in range(table.n):
        for v in range(2**depth):
            prefix = format(v, f"0{depth}b") if depth else ""
            items.append(("label", ("node", prefix)))
            items.append(PosTest(_core_read(conv.in_focus(depth + 1))))
            items.append(("goto", child_key(prefix + "1")))
            items.append(("goto", child_key(prefix + "0")))
    for bits, value in table.rows():
        items.append(("label", ("leaf", bits)))
        items.extend(_leaf_instructions(conv, value))
    return concat_all(_assemble(items))


# ---------------------------------------------------------------------------
# core-instruction-set restriction


# Shortest core blocks for every instruction behaviour, keyed like
# ``_decode``: (content after 0, content after 1, step on 0, step on 1).
# All 48 forms share these 16 behaviours; each row names the one positive
# test that has it.  A token is a core instruction on the instruction's
# register (``+i`` stands for ``+f.i/i``) or an exit: ``>1`` jumps to the
# block of the next position, ``>2`` to the one after; falling off the last
# slot continues at the next position.  A block *needs* a landing when its
# last slot can skip, onto the second slot of the next block; it *offers*
# one when it is one slot long or its second slot, entered directly, goes
# to the next position with no effect.  The four entries are the landing
# classes (needs, offers) = (no, no), (no, yes), (yes, no), (yes, yes);
# None where a block of another class is no longer and fits wherever this
# one fits.  tests/test_core_table.py derives the table by brute force over
# every body of at most four slots, and prints it.
_CORE_BLOCKS = {
    (False, False, 1, 1): (None, "0", None, None),  # +1/0
    (False, False, 1, 2): (None, "-i >1 0 >2", "+i +0", "-i >1 +0"),  # +c/0
    (False, False, 2, 1): ("+i +0 >2", None, None, None),  # +i/0
    (False, False, 2, 2): ("0 >2", "+0 >1 >2", None, "+0"),  # +0/0
    (False, True, 1, 1): (None, "i", None, None),  # +1/i
    (False, True, 1, 2): ("+i >2", "-i >1 >2", None, "-i"),  # +c/i
    (False, True, 2, 1): ("-i >2", "+i >1 >2", None, "+i"),  # +i/i
    (False, True, 2, 2): (None, ">2", None, None),  # +0/i
    (True, False, 1, 1): ("+i +0 1", None, None, None),  # +1/c
    (True, False, 1, 2): ("+i +0 -1 >2", None, "-i -1 +0", None),  # +c/c
    (True, False, 2, 1): ("-i -1 +0 >2", None, "+i +0 -1", None),  # +i/c
    (True, False, 2, 2): ("+i +0 1 >2", None, None, None),  # +0/c
    (True, True, 1, 1): (None, "1", None, None),  # +1/1
    (True, True, 1, 2): ("+i >2 1", None, None, None),  # +c/1
    (True, True, 2, 1): (None, "+i >1 1 >2", "-i -1", "+i >1 -1"),  # +i/1
    (True, True, 2, 2): ("1 >2", "-1 >1 >2", None, "-1"),  # +0/1
}

# per behaviour: (tokens, needs a landing, offers one) for each listed class
_CORE_OPTIONS = {
    behaviour: [(block.split(), cls >> 1, cls & 1) for cls, block in enumerate(entries) if block]
    for behaviour, entries in _CORE_BLOCKS.items()
}
_TOKEN_KIND = {"": Plain, "+": PosTest, "-": NegTest}


def _core_slot(token: str, focus: Focus, i: int) -> Union[PrimitiveInstruction, int]:
    """A block token as a core instruction, or an exit as its 0-based target."""
    if token[0] == ">":
        return i + int(token[1])
    op = UnaryBoolFunc(token[-1])
    return _TOKEN_KIND[token[:-1]](RegisterAction(focus, op, op))


def restrict_to_core(
    t: InstructionSequenceTerm, conv: IoConvention
) -> InstructionSequenceTerm:
    """Functionally equivalent program using only core basic instructions.

    Each reachable register instruction becomes one of the core blocks that
    ``_CORE_BLOCKS`` lists for its behaviour; halts and jumps stay one slot
    each, and so does each unreachable position, as ``#0``.  A backward pass
    picks the blocks of least total length such that a block that needs a
    landing is followed by one that offers it (past the end always does);
    then every jump and exit is relocated to the start of its target's
    block.
    """
    instrs = _validate_program(t, conv)
    total = len(instrs)
    reached = [True] + [False] * (total + 1)
    options: list[list[tuple]] = []  # per position: (slots, needs, offers)
    for i, (instr, op) in enumerate(zip(instrs, _decode(instrs, conv))):
        if not reached[i]:
            options.append([([Jump(0)], 0, 1)])
        elif type(op) is tuple:
            reached[i + op[3]] = reached[i + op[4]] = True
            options.append(_CORE_OPTIONS[op[1:]])
        else:
            if op:
                reached[min(i + op, total)] = True
            options.append([([i + op if op else instr], 0, 1)])

    # cost[must]: least length of the blocks from a position on, where
    # ``must`` says that its block has to offer a landing
    cost = [0, 0]
    picks: list[list[Optional[tuple]]] = []
    for opts in reversed(options):
        after, cost, best = cost, [float("inf")] * 2, [None, None]
        for opt in opts:
            length = len(opt[0]) + after[opt[1]]
            for must in range(1 + opt[2]):
                if length < cost[must]:
                    cost[must], best[must] = length, opt
        picks.append(best)

    blocks: list[list] = []
    must = 0
    for i, best in enumerate(reversed(picks)):
        slots, must, _ = best[must]  # the next block must offer what this one needs
        if type(slots[0]) is str:
            slots = [_core_slot(token, instrs[i].basic.focus, i) for token in slots]
        blocks.append(slots)
    starts = list(itertools.accumulate(map(len, blocks), initial=0))
    out: list[PrimitiveInstruction] = []
    for slots in blocks:
        for slot in slots:
            if type(slot) is int:
                target = starts[slot] if slot < total else starts[total] + slot - total
                slot = Jump(target - len(out))
            out.append(slot)
    return concat_all(out)


# ---------------------------------------------------------------------------
# exhaustive shortest-program search


def _search_alphabet(conv: IoConvention, length: int) -> list[PrimitiveInstruction]:
    """Candidate instructions, in the order that defines 'lexicographically least'."""
    instrs: list[PrimitiveInstruction] = [Halt()]
    instrs.extend(Jump(l) for l in range(length + 1))
    foci = (
        [conv.in_focus(i) for i in range(1, conv.n + 1)]
        + [conv.out_focus(i) for i in range(1, conv.m + 1)]
        + [conv.aux_focus(i) for i in range(1, conv.k + 1)]
    )
    for focus in foci:
        for op in (F0, T1, ID):
            action = RegisterAction(focus, op, op)
            instrs.extend((Plain(action), PosTest(action), NegTest(action)))
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

    def passes(code: tuple[_Op, ...]) -> bool:
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
