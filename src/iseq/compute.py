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
program, instruction by instruction with jump relocation, into a
functionally equivalent core-only program at most three instructions longer
per non-core instruction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .syntax import (
    CM,
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
    concat_all,
    is_repetition_free,
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
    if not is_repetition_free(t):
        raise ValueError("program must be repetition-free")
    instrs = leaves(t)
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
            steps = [
                1 if isinstance(instr, Plain) or action.reply(bit) == isinstance(instr, PosTest) else 2
                for bit in (False, True)
            ]
            slot = base[action.focus.name] + action.focus.index - 1
            code.append((slot, action.effect(False), action.effect(True), *steps))
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


def _is_core(action: RegisterAction) -> bool:
    return (action.reply, action.effect) in ((F0, F0), (T1, T1), (ID, ID))


@dataclass
class _Block:
    """Translation of one original instruction.

    Slots are concrete instructions or ('g', j) jumps to the relocated
    start of original position j.  ``physics_test`` marks a single test
    relying on untranslated skip geometry; ``tramped`` marks a multi-slot
    block whose second slot is a pure jump to the following position, which
    is exactly where a skipping predecessor must land.  ``entry_offset``
    points into the preceding block for positions absorbed by a pair.
    """

    slots: list
    physics_test: bool = False
    tramped: bool = False
    is_pair: bool = False
    consumed: bool = False
    entry_offset: int = 0
    # a compact variant may rely on the block of a later original position
    # occupying exactly one slot; on violation the block is rebuilt
    context_pos: Optional[int] = None
    fallback: Optional["_Block"] = None


def _skip_edge_live(instr: PrimitiveInstruction) -> bool:
    """Can this test ever take its skip edge?

    A constant-reply test follows one edge only; when that is the proceed
    edge, the skip geometry never matters.
    """
    if not isinstance(instr, (PosTest, NegTest)):
        return False
    reply = instr.basic.reply
    if reply is F0:
        return isinstance(instr, PosTest)
    if reply is T1:
        return isinstance(instr, NegTest)
    return True


def _gadgets(focus: Focus):
    fii = RegisterAction(focus, ID, ID)
    f00 = RegisterAction(focus, F0, F0)
    f11 = RegisterAction(focus, T1, T1)
    return {
        "read_pos": PosTest(fii),  # branch on content, no effect
        "read_neg": NegTest(fii),
        "read_plain": Plain(fii),  # no-op
        "set0_plain": Plain(f00),
        "set1_plain": Plain(f11),
        "set0_skip": PosTest(f00),  # set false, always skip the next slot
        "set0_next": NegTest(f00),  # set false, always proceed
        "set1_skip": NegTest(f11),
        "set1_next": PosTest(f11),
    }


def _noncore_body(kind: str, action: RegisterAction, i: int) -> tuple[list, bool]:
    """Slots and tramp flag for a non-core instruction at original position i.

    Exit conventions inside a body: falling past the last slot continues at
    position i+1; explicit ('g', j) slots relocate; a setter-with-skip in
    the second-to-last slot also exits past the block.
    """
    gadget = _gadgets(action.focus)
    p, q = action.reply, action.effect

    def g(j: int) -> tuple:
        return ("g", j)

    if kind == "plain":
        if q is F0:
            return [gadget["set0_plain"]], False
        if q is T1:
            return [gadget["set1_plain"]], False
        if q is ID:
            return [gadget["read_plain"]], False
        # complement: read, then set the opposite on each branch
        return [gadget["read_pos"], gadget["set0_skip"], gadget["set1_plain"]], False

    def direction(bit: bool) -> str:
        taken = p(bit)
        return "N" if taken == (kind == "pos") else "S"

    d0, d1 = direction(False), direction(True)
    if q is ID:
        if d0 == "N" and d1 == "N":
            return [gadget["read_plain"]], False
        if d0 == "S" and d1 == "S":
            return [g(i + 2)], False
        if d1 == "N":
            return [gadget["read_pos"]], False  # physics test
        return [gadget["read_neg"]], False  # physics test
    if q in (F0, T1):
        noop_bit = q is T1  # content on which the write changes nothing
        setter_skip = gadget["set0_skip"] if q is F0 else gadget["set1_skip"]
        setter_next = gadget["set0_next"] if q is F0 else gadget["set1_next"]
        if p in (F0, T1):  # reply, hence direction, ignores the content
            if d0 == "N":
                return [setter_next], False
            return [setter_skip, g(i + 1), g(i + 2)], True
        if direction(noop_bit) == "N":
            # no-op side exits next: route it through a pure second slot
            read = gadget["read_pos"] if noop_bit else gadget["read_neg"]
            return [read, g(i + 1), setter_next, g(i + 2)], True
        # write side proceeds into a skipping setter, which exits just past
        # the block: the next position, as its direction demands
        read = gadget["read_pos"] if not noop_bit else gadget["read_neg"]
        return [read, setter_skip, g(i + 2)], False
    # q complements the content: both branches must write
    if d0 == "N" and d1 == "N":
        return [gadget["read_pos"], gadget["set0_skip"], gadget["set1_plain"]], False
    if d0 == "S" and d1 == "S":
        return [gadget["read_pos"], gadget["set0_skip"], gadget["set1_plain"], g(i + 2)], False
    if d1 == "N":
        return [gadget["read_neg"], gadget["set1_skip"], gadget["set0_skip"], g(i + 2)], False
    return [gadget["read_pos"], gadget["set0_skip"], gadget["set1_skip"], g(i + 2)], False


def _swap_polarity(instr: PrimitiveInstruction) -> PrimitiveInstruction:
    if isinstance(instr, PosTest):
        return NegTest(instr.basic)
    if isinstance(instr, NegTest):
        return PosTest(instr.basic)
    raise TypeError(f"not a test: {instr}")


def _aligned_context_body(kind: str, action: RegisterAction, i: int) -> Optional[list]:
    """Three-slot variant of the aligned constant-write test.

    The write side proceeds into a skipping setter whose landing is one slot
    past the block plus one, i.e. the position after next only when the next
    position's block is a single slot; the caller guards that requirement.
    """
    p, q = action.reply, action.effect
    if q not in (F0, T1) or p not in (ID, CM):
        return None
    gadget = _gadgets(action.focus)
    noop_bit = q is T1
    if p(noop_bit) != (kind == "pos"):  # the no-op side must exit to the next position
        return None
    read = gadget["read_pos"] if noop_bit else gadget["read_neg"]
    setter_skip = gadget["set0_skip"] if q is F0 else gadget["set1_skip"]
    return [read, ("g", i + 1), setter_skip]


def _flip_test_context_body(kind: str, action: RegisterAction) -> Optional[list]:
    """Three-slot body for a complement test whose reply depends on the content.

    Both setters exit by skipping: the proceed-side lands one slot past the
    enclosing block (the next position) and the skip-side lands one further,
    which is only the position after next when that block is a single slot.
    The caller must guard that requirement.
    """
    if action.effect is not CM or action.reply not in (ID, CM):
        return None
    gadget = _gadgets(action.focus)

    def direction(bit: bool) -> str:
        return "N" if action.reply(bit) == (kind == "pos") else "S"

    if direction(True) == "N":  # flip: content 1 proceeds, content 0 skips
        return [gadget["read_pos"], gadget["set0_skip"], gadget["set1_skip"]]
    return [gadget["read_neg"], gadget["set1_skip"], gadget["set0_skip"]]


def _reachable_positions(instrs: Sequence[PrimitiveInstruction]) -> set[int]:
    """Positions executable from the start.

    A test whose reply function is constant has a single successor, so code
    behind it can be genuinely unreachable.
    """
    total = len(instrs)
    reached: set[int] = set()
    queue = [1]
    while queue:
        pos = queue.pop()
        if pos in reached or not 1 <= pos <= total:
            continue
        reached.add(pos)
        instr = instrs[pos - 1]
        if isinstance(instr, Halt):
            continue
        if isinstance(instr, Jump):
            if instr.offset:
                queue.append(pos + instr.offset)
            continue
        if isinstance(instr, Plain):
            queue.append(pos + 1)
            continue
        reply = instr.basic.reply
        if reply in (F0, T1):
            taken = reply is T1
            follows_next = taken == isinstance(instr, PosTest)
            queue.append(pos + 1 if follows_next else pos + 2)
        else:
            queue.extend((pos + 1, pos + 2))
    return reached


def restrict_to_core(
    t: InstructionSequenceTerm, conv: IoConvention
) -> InstructionSequenceTerm:
    """Functionally equivalent program using only core basic instructions.

    Every instruction translates to a block of at most four instructions and
    every jump literal is rewritten to the relocated target.  Tests kept
    verbatim rely on their skip landing two output slots ahead; where a
    following block breaks that geometry the test is either fused with the
    block or rewritten with explicit jumps.  Unreachable positions emit one
    inert slot each.
    """
    instrs = _validate_program(t, conv)
    total = len(instrs)
    reachable = _reachable_positions(instrs)

    blocks: list[_Block] = []
    for idx, instr in enumerate(instrs):
        i = idx + 1
        if i not in reachable:
            blocks.append(_Block([Jump(0)]))
        elif isinstance(instr, Halt):
            blocks.append(_Block([instr]))
        elif isinstance(instr, Jump):
            blocks.append(_Block([instr if instr.offset == 0 else ("g", i + instr.offset)]))
        else:
            action = instr.basic
            assert isinstance(action, RegisterAction)
            if _is_core(action):
                blocks.append(_Block([instr], physics_test=_skip_edge_live(instr)))
            else:
                kind = (
                    "plain"
                    if isinstance(instr, Plain)
                    else "pos" if isinstance(instr, PosTest) else "neg"
                )
                slots, tramped = _noncore_body(kind, action, i)
                physics = len(slots) == 1 and not isinstance(slots[0], tuple) and _skip_edge_live(slots[0])
                compact = None if kind == "plain" else _aligned_context_body(kind, action, i)
                if compact is not None:
                    blocks.append(
                        _Block(
                            compact,
                            tramped=True,
                            context_pos=i + 1,
                            fallback=_Block(slots, tramped=tramped),
                        )
                    )
                else:
                    blocks.append(_Block(slots, physics_test=physics, tramped=tramped))

    # fuse a physics test with a following multi-slot block that has no
    # landing slot for the test's skip: the swapped test proceeds into the
    # block's body and its other branch jumps over it
    for idx in range(total - 1):
        head, body = blocks[idx], blocks[idx + 1]
        if (
            head.physics_test
            and not head.consumed
            and len(body.slots) > 1
            and not body.tramped
            and not body.is_pair
        ):
            i = idx + 1  # original position of the test
            pair_slots = [_swap_polarity(head.slots[0]), ("g", i + 2)] + list(body.slots)
            context_pos = None
            fallback = None
            u = instrs[idx + 1]
            if isinstance(u, (PosTest, NegTest)) and isinstance(u.basic, RegisterAction):
                compact = _flip_test_context_body(
                    "pos" if isinstance(u, PosTest) else "neg", u.basic
                )
                if compact is not None:
                    fallback = _Block(pair_slots, is_pair=True)
                    pair_slots = pair_slots[:2] + compact
                    context_pos = i + 2
            blocks[idx] = _Block(
                pair_slots, is_pair=True, context_pos=context_pos, fallback=fallback
            )
            body.consumed = True
            body.entry_offset = 2

    def layout() -> tuple[dict[int, int], int, dict[int, object]]:
        starts: dict[int, int] = {}
        slot_at: dict[int, object] = {}
        pos = 1
        for idx, block in enumerate(blocks):
            if block.consumed:
                starts[idx + 1] = starts[idx] + block.entry_offset
                continue
            starts[idx + 1] = pos
            for slot in block.slots:
                slot_at[pos] = slot
                pos += 1
        return starts, pos - 1, slot_at

    # rewrite remaining physics tests whose skip no longer lands right: the
    # landing must either be the next original position's block start or a
    # pure jump slot going there
    while True:
        starts, out_len, slot_at = layout()

        def pos_of(j: int) -> int:
            if j <= total:
                return starts[j]
            return out_len + (j - total)

        dirty = False
        for idx, block in enumerate(blocks):
            i = idx + 1
            if block.context_pos is not None:
                # compact variant: its last slot skips to two past the block,
                # which must be the start of the position after the context one
                landing = starts[i] + len(block.slots) + 1
                if landing != pos_of(block.context_pos + 1):
                    blocks[idx] = block.fallback
                    dirty = True
                continue
            if not block.physics_test or block.consumed:
                continue
            landing = starts[i] + 2
            if landing == pos_of(i + 2) or slot_at.get(landing) == ("g", i + 2):
                continue
            # rewrite the test with explicit exits; with no skipping test in
            # front, swapping the polarity saves a slot (the taken branch
            # falls just past the block, onto the next position)
            if idx == 0 or not blocks[idx - 1].physics_test:
                blocks[idx] = _Block([_swap_polarity(block.slots[0]), ("g", i + 2)])
            else:
                blocks[idx] = _Block(
                    [block.slots[0], ("g", i + 1), ("g", i + 2)], tramped=True
                )
            dirty = True
        if not dirty:
            break

    starts, out_len, _ = layout()

    def pos_of(j: int) -> int:
        if j <= total:
            return starts[j]
        return out_len + (j - total)

    out: list[PrimitiveInstruction] = []
    pos = 1
    for block in blocks:
        if block.consumed:
            continue
        for slot in block.slots:
            if isinstance(slot, tuple):
                target = pos_of(slot[1])
                if target <= pos:
                    raise AssertionError("relocated jump must move forward")
                out.append(Jump(target - pos))
            else:
                out.append(slot)
            pos += 1
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
