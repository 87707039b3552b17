"""Computing partial Boolean functions with instruction sequences.

A repetition-free program over the input/output/auxiliary register naming
convention computes a partial function when, for every defined input row,
running its behaviour against the loaded input and zeroed auxiliary
registers and then applying it to zeroed output registers yields exactly the
expected output family, and for every undefined row yields the empty
family.

Every check here runs that definition on every input row at once, over a
decoded instruction array and big-int row masks: bit r of a mask stands
for row r, ``regs[s]`` holds register s of every row, ``at[p]`` the rows
parked at position p, and ``done`` the rows that reached ``!``.  One pass
visits the positions in order; a register instruction splits ``at[p]`` by
the register's bits, writes both effects under ``at[p]`` and moves the two
halves on, a jump moves the mask on, and ``#0`` or running past the end
drops it.  Jumps only go forward, so when position p comes up every row
that will ever stand there has arrived, and a row's registers change only
where it stands: the final masks hold what each row computes.  Rows run
in chunks of at most 2**16, fewer for a long program, so a mask takes at
most 8 KB and a chunk's masks about 8 MB, however many inputs there are.
A register no program names never changes a row's run, so ``regs`` holds
only those a check reads or a program names: a count costs nothing itself.
A program's decoding under the last convention it was checked against is
kept as a form of the term (``syntax._form``), so several checks of one
program under one convention validate and decode it once; so are the
output rows of its run, when they all fit in one chunk (always for n <= 13),
so ``computes_check`` and ``induced_table`` run them once.  A run over
several chunks keeps no rows and still stops at the first wrong chunk.

That run equals extract, then ``use`` on the in/aux family, then ``apply``
on the out family.  The two families are disjoint, so ``use`` carries out
exactly the in/aux actions, as internal steps, and leaves exactly the out
actions for ``apply``, in the order the thread performs them.  Validation
puts every focus in the union, so neither step meets an unknown register.
Neither route can diverge: each row ends, within as many steps as the
program is long, in ``!`` or in inaction.  The algebraic route stays in
``interaction`` as the public API and as the tests' oracle.

The module also provides the two constructive results: compiling an
explicit truth table to a program that uses only the core operations
(set-false 0/0, set-true 1/1, read i/i), and translating an arbitrary
program into a functionally equivalent core-only one.  Both lay their
blocks out by ``syntax._relocate``, the one relocation loop, which also
lays out single-repetition synthesis (``extraction``).  The compiled
program is the table's reduced ordered decision diagram (Bryant 1986) over
in:1..in:n: a 3-slot block per node, which tests its input and jumps to
either child, level by level from the root, then a block per distinct
output value.  Forward jumps lay out any such graph in topological order,
so a function with a small diagram compiles to a short program however many
rows its table has: 16-input parity takes 96 instructions.  The translation
looks up each instruction's behaviour in a table of shortest core blocks of
at most four slots, derived by brute force and committed as a literal; one
backward pass picks the blocks of least total length that fit together, and
the jumps are relocated.  Each non-core instruction thus grows the program
by at most three instructions, except where a skipping core test directly
precedes a block that cannot catch its skip and must take an explicit jump:
36 of the 22,350 programs of length at most 2 over in:1, out:1 and aux:1.

The shortest-program search fixes the positions of each candidate length
left to right, over the same decoded instructions.  Jumps only go forward,
so after each position every input row has either ended or is parked
further on with its registers.  Four exact rules prune the walk: a row
that ends wrongly kills the prefix, and so does a row with w wrong output
bits and at most w positions left, since it needs w writes and a ``!``,
each at its own position; so do two unfinished rows in one state that
want different results, since they end alike; and of prefixes with equal
frontiers only the least is kept.  So the search returns the
length-lexicographically least program that enumerating every candidate
would.  A budget on the frontiers it expands bounds its work.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
    _EXITS,
    _TRUTH,
    _form,
    _relocate,
)


@dataclass(frozen=True, slots=True)
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
        count = {"in": self.n, "out": self.m, "aux": self.k}.get(focus.name, 0)
        if focus.index is None or focus.index > count:
            raise ValueError(f"focus {focus} is outside the in/out/aux convention {self}")


# A decoded instruction is None for ``!``, its step for a jump (0 is
# inaction), or (slot, effect_on_0, effect_on_1, step_on_0, step_on_1) for a
# register instruction.  Register slots lay out in:1..n, out:1..m, aux:1..k.
_Op = None | int | tuple


def _decode(instrs: Sequence[PrimitiveInstruction], conv: IoConvention) -> list[_Op]:
    """Instruction array of a validated program, for :func:`_run_rows` and the search."""
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
            yes, no = _EXITS[type(instr)]  # each step is read from the exit table by the reply
            on_0, on_1 = _TRUTH[action.reply._value_]
            code.append((slot, *_TRUTH[action.effect._value_], yes if on_0 else no, yes if on_1 else no))
    return code


def _validate_program(
    t: InstructionSequenceTerm, conv: IoConvention
) -> tuple[Sequence[PrimitiveInstruction], tuple[_Op, ...], frozenset[int]]:
    """The program's instructions, their decoding and the register slots
    it names, each distinct instruction object checked and decoded once (a
    parse shares them).  Both depend only on the convention, so the result
    is a form of the term kept with its convention (``syntax._form``): a
    sweep over many conventions keeps one result per term, and a program
    that fails validation keeps nothing."""

    def check(instrs, period):
        if period:
            raise ValueError("program must be repetition-free")
        keys = list(map(id, instrs))
        distinct = dict(zip(keys, instrs))
        for instr in distinct.values():
            if isinstance(instr, (Plain, PosTest, NegTest)):
                if isinstance(instr.basic, AbstractAction):
                    raise ValueError(f"abstract action {instr.basic} is not a register instruction")
                conv.check_focus(instr.basic.focus)
        decoded = _decode(list(distinct.values()), conv)
        named = frozenset(op[0] for op in decoded if type(op) is tuple)
        ops = dict(zip(distinct, decoded))
        return instrs, tuple(map(ops.__getitem__, keys)), named

    return _form(t, "program", check, conv)


def _run_rows(code: Sequence[_Op], regs: dict[int, int], rows: int) -> int:
    """Run decoded code on the rows of the mask ``rows`` at once, as the
    module docstring describes; return the mask of those that reach ``!``.
    ``regs`` holds, by slot, each register the code names, updated in place."""
    end = len(code)
    at = [rows] + [0] * (end + 1)  # a step of 1 or 2 may land past the end
    done = 0
    for p, op in enumerate(code):
        here = at[p]
        if not here:
            continue
        at[p] = 0  # rows only move on, so only the masks of parked rows stay
        if op is None:
            done |= here
        elif type(op) is int:
            if op and p + op < end:  # #0 and running past the end drop the rows
                at[p + op] |= here
        else:
            slot, effect0, effect1, step0, step1 = op
            ones = here & regs[slot]
            zeros = here ^ ones
            if effect0:
                regs[slot] ^= zeros
            if not effect1:
                regs[slot] ^= ones
            if step0 == step1:
                at[p + step0] |= here
            else:
                at[p + step0] |= zeros
                at[p + step1] |= ones
    return done


_CHUNK_BITS = 16  # a chunk runs at most 2**16 rows


def _chunks(ins: Sequence[int], others: Iterable[int], length: int) -> Iterator[tuple[int, dict[int, int]]]:
    """The rows of the input slots ``ins``, sorted, in chunks: per chunk,
    the mask of its rows and their registers by slot, ``others`` at 0.

    A chunk holds 2**16 rows, halved for every doubling of the program's
    positions and registers from 1,024 on, down to 2**13.  Rows parked at
    distinct positions are distinct rows, so a chunk's masks never hold
    much more than 2**26 bits (8 MB) at once.  Row v loads ``ins[j]`` with
    bit n - 1 - j of v, n = len(ins).  Within a chunk the low bits of v run
    through every value and the high ones stay fixed, so an input reads the
    same row pattern in every chunk, or is all ones or all zeros.
    """
    start = dict.fromkeys(itertools.chain(others, ins), 0)
    low = min(len(ins), _CHUNK_BITS, max(13, 26 - (length + len(start)).bit_length()))
    rows = 1 << low
    every = (1 << rows) - 1
    patterns = []  # pattern b: the rows of a chunk whose index has bit b set
    for b in range(low):
        mask, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width < rows:  # doubling, linear in the rows
            mask |= mask << width
            width <<= 1
        patterns.append(mask)
    patterns.reverse()
    high = len(ins) - low
    for chunk in range(1 << high):
        fixed = [every if chunk >> (high - i) & 1 else 0 for i in range(1, high + 1)]
        regs = start.copy()
        regs.update(zip(ins, fixed + patterns))
        yield every, regs


def _outputs(
    code: Sequence[_Op], named: Iterable[int], conv: IoConvention
) -> Iterator[tuple[Optional[str], ...]]:
    """Output bits computed on each input row, chunk by chunk in table
    order; None for the empty family.  Equal rows share one string."""
    outs = range(conv.n, conv.n + conv.m)
    for rows, regs in _chunks(range(conv.n), itertools.chain(outs, named), len(code)):
        done = _run_rows(code, regs, rows)
        spell = f"0{rows.bit_length()}b"
        got = map(sys.intern, map("".join, zip(*[format(regs[s], spell)[::-1] for s in outs])))
        yield tuple(out if flag == "1" else None for flag, out in zip(format(done, spell)[::-1], got))


class _Chunked(Exception):
    """A row run that spans several chunks: its first chunk's rows and an
    iterator over the others, raised so that ``_form`` keeps nothing."""


def _rows(t: InstructionSequenceTerm, conv: IoConvention) -> Iterable[tuple[Optional[str], ...]]:
    """``_outputs`` of the program under the convention, every input and
    output kept.  A run whose rows all fit in the first chunk ``_chunks``
    cuts is kept as the term's ``"rows"`` form with the convention, so a
    later check under an equal one runs no rows.  A longer run keeps
    nothing, and each chunk after the first runs when its first row is
    read, so a check can stop at the first chunk that holds a wrong row."""

    def run(*_):
        _, code, named = _validate_program(t, conv)
        chunks = _outputs(code, named, conv)
        first = next(chunks)
        if len(first).bit_length() <= conv.n:  # fewer than 2**n rows
            raise _Chunked(first, chunks)
        return first

    try:
        return (_form(t, "rows", run, conv),)
    except _Chunked as chunked:
        return itertools.chain(chunked.args[:1], chunked.args[1])


def induced_table(t: InstructionSequenceTerm, conv: IoConvention) -> FunctionTable:
    """The partial function a program computes under the convention.

    Meaningful for m >= 1; with no output registers the defined and
    undefined row conditions coincide, so no unique table exists.
    """
    if conv.m == 0:
        raise ValueError("programs without output registers induce no unique table")
    # a new tuple: the kept rows are never handed out
    return FunctionTable(conv.n, conv.m, tuple(itertools.chain.from_iterable(_rows(t, conv))))


def computes_check(t: InstructionSequenceTerm, table: FunctionTable, k: int) -> bool:
    """Does the program compute the table, with k auxiliary registers?"""
    rows = itertools.chain.from_iterable(_rows(t, IoConvention(table.n, table.m, k)))
    # with no outputs both row conditions require the empty family
    return table.m == 0 or all(map(operator.eq, rows, table.outputs))


def functionally_equivalent(
    t: InstructionSequenceTerm, t2: InstructionSequenceTerm, conv: IoConvention
) -> bool:
    """Do both programs compute one and the same partial function?

    They do when, on every input row, both terminate with equal outputs or
    neither terminates; a row's outputs count only where it terminates.
    A register neither program names never changes a row's run, and an
    output neither names stays 0 on both sides, so only the named registers
    count: the rows are those of the named inputs.
    """
    _, code, named = _validate_program(t, conv)
    _, code2, named2 = _validate_program(t2, conv)
    if conv.m == 0:
        return True  # every program computes every function onto zero outputs
    named = sorted(named | named2)
    ins = [s for s in named if s < conv.n]
    outs = [s for s in named if conv.n <= s < conv.n + conv.m]
    for rows, regs in _chunks(ins, named, max(len(code), len(code2))):
        regs2 = regs.copy()
        done = _run_rows(code, regs, rows)
        if done != _run_rows(code2, regs2, rows):
            return False
        if any((regs[s] ^ regs2[s]) & done for s in outs):
            return False
    return True


# ---------------------------------------------------------------------------
# truth table -> core-only program


def _node(unique: dict, level: int, lo, hi):
    """The reduced ordered decision diagram's node at ``level`` with false
    child ``lo`` and true child ``hi``, from ``unique``, the level's table of
    nodes by children: a node with equal children is that child, and equal
    nodes are one, ``(level, i)`` for the i-th the table met."""
    return lo if lo == hi else unique.setdefault((lo, hi), (level, len(unique)))


def compile_table(table: FunctionTable) -> InstructionSequenceTerm:
    """Repetition-free core-only program computing the table with no auxiliaries.

    It lays out the table's reduced ordered decision diagram over in:1..in:n,
    built bottom up: the distinct output values are the leaves, and each
    level pairs up the sub-tables below it through ``_node``.  A node that
    tests in:d is the block ``+in:d.i/i;#hi;#lo``; a leaf sets the 1-bits of
    its output (outputs start false) and terminates, or jumps nowhere, which
    is inaction, where the rows are undefined.  The nodes follow level by
    level from the root, each level in order of first occurrence, then the
    leaves.  Like a parse, the program shares one object among equal
    instructions.
    """
    conv = IoConvention(table.n, table.m, 0)
    reads = [PosTest(RegisterAction(conv.in_focus(d), ID, ID)) for d in range(1, table.n + 1)]
    sets = [Plain(RegisterAction(conv.out_focus(i), T1, T1)) for i in range(1, table.m + 1)]
    halt, inaction = Halt(), Jump(0)
    unique: list[dict] = [{} for _ in range(table.n + 1)]  # level n holds the leaves by value
    below = [unique[-1].setdefault(value, (table.n, len(unique[-1]))) for value in table.outputs]
    for d in reversed(range(table.n)):
        below = [_node(unique[d], d, lo, hi) for lo, hi in zip(below[::2], below[1::2])]
    base = list(itertools.accumulate(map(len, unique), initial=0))
    tests = [
        [reads[d], base[hi[0]] + hi[1], base[lo[0]] + lo[1]] for d in range(table.n) for lo, hi in unique[d]
    ]
    ends = [
        [inaction] if value is None
        else [set_ for set_, bit in zip(sets, value) if bit == "1"] + [halt]
        for value in unique[-1]
    ]
    return _relocate(tests + ends)


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


def _core_slot(token: str, focus: Focus, i: int, shared: dict) -> PrimitiveInstruction | int:
    """A block token as a core instruction, one object per instruction in
    ``shared``, or an exit as its 0-based target."""
    if token[0] == ">":
        return i + int(token[1])
    key = token, focus.name, focus.index
    if key not in shared:
        op = UnaryBoolFunc(token[-1])
        shared[key] = _TOKEN_KIND[token[:-1]](RegisterAction(focus, op, op))
    return shared[key]


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
    block.  Like a parse, the program shares one object among its equal
    core instructions and among its jumps of each offset.
    """
    instrs, code, _ = _validate_program(t, conv)
    total = len(instrs)
    reached = [True] + [False] * (total + 1)
    options: list[list[tuple]] = []  # per position: (slots, needs, offers)
    for i, (instr, op) in enumerate(zip(instrs, code)):
        if not reached[i]:
            options.append([([i], 0, 1)])  # a jump to its own block is #0
        elif type(op) is tuple:
            reached[i + op[3]] = reached[i + op[4]] = True
            options.append(_CORE_OPTIONS[op[1:]])
        elif op is None:
            options.append([([instr], 0, 1)])
        else:  # past the end any distance is inaction: land just past it
            reached[min(i + op, total)] = True
            options.append([([min(i + op, total)], 0, 1)])

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
    shared: dict = {}
    for i, best in enumerate(reversed(picks)):
        slots, must, _ = best[must]  # the next block must offer what this one needs
        if type(slots[0]) is str:
            slots = [_core_slot(token, instrs[i].basic.focus, i, shared) for token in slots]
        blocks.append(slots)
    return _relocate(blocks)


# ---------------------------------------------------------------------------
# exhaustive shortest-program search


def _search_alphabets(n: int, m: int, k: int) -> Iterator[tuple[list[PrimitiveInstruction], list[_Op]]]:
    """The candidate instructions of each length L = 1, 2, ... with their
    decoding, in the order that defines 'lexicographically least': ``!``,
    ``#0`` to ``#L``, then the nine core instructions on each of in:1..n,
    out:1..m and aux:1..min(k, L).  Each length builds and decodes only the
    symbols it adds to the one before, and only when it is asked for, so a
    negative count raises ValueError only once length 1 is."""
    conv = IoConvention(n, m, k)
    jumps, registers, jump_code, register_code = [Halt(), Jump(0)], [], [], []  # ``!`` leads the jumps
    # the foci a length adds: in and out at length 1, and aux:L while L <= k
    added = [conv.in_focus(i) for i in range(1, n + 1)] + [conv.out_focus(i) for i in range(1, m + 1)]
    for length in itertools.count(1):
        if length <= k:
            added.append(conv.aux_focus(length))
        jumps.append(Jump(length))
        for focus in added:
            for op in (F0, T1, ID):
                action = RegisterAction(focus, op, op)
                registers += (Plain(action), PosTest(action), NegTest(action))
        added = []
        jump_code += _decode(jumps[len(jump_code) :], conv)
        register_code += _decode(registers[len(register_code) :], conv)
        yield jumps + registers, jump_code + register_code


DEFAULT_MAX_NODES = 250_000


class SearchBudgetExceeded(ValueError):
    """The search expanded more frontier nodes than its budget allows."""

    def __init__(self, max_nodes: int, searched: int):
        super().__init__(
            f"search node budget of {max_nodes} exhausted; "
            f"no program of length {searched} or less computes the table"
        )


def search_shortest(
    table: FunctionTable, k: int, max_len: int, max_nodes: int = DEFAULT_MAX_NODES
) -> Optional[InstructionSequenceTerm]:
    """Length-lexicographically least core program computing the table.

    The candidates are all programs over the core instructions, forward
    jumps with literals up to the candidate length, and termination, in the
    order of ``_search_alphabets``.  For each length, a depth-first walk
    fixes one position at a time, trying the symbols in that order.  Jumps
    only go forward, so once the first p positions are fixed every input
    row has either ended or is parked at a later position with some
    register contents; the tuple of these row states is the *frontier*.
    Four exact rules prune the walk:

    - a row that ends with the wrong result (it halts with other outputs,
      halts on an undefined row, or goes inactive on a defined one) kills
      the prefix;
    - so does a defined row parked d positions from the end whose outputs
      differ from the wanted ones in w >= d bits: each instruction it still
      runs has its own position, and changes at most one register (``!``
      none), so it needs w writes and a ``!`` at w + 1 positions;
    - so do two unfinished rows in one state that want different results
      (other outputs, or one defined and one undefined): from equal states
      they run the same instructions and end alike, so no completion
      serves both.  This is the consistency argument of exact automaton
      identification (Heule & Verwer, ICGI 2010); it is checked where a
      row moves on, so unfinished rows in one state always agree;
    - a frontier met before with as many positions left is dropped: equal
      frontiers accept the same completions, and the earlier one came from
      a smaller prefix of this length, or from a shorter length that found
      no program.  Positions are counted from the end, so the memo
      carries over from one length to the next.  A jump past the end
      gives the frontier of ``#0``, which comes first, and at a position
      where no row is parked every symbol gives the frontier of ``!``.

    Each rule drops only prefixes that cannot complete, or that complete no
    earlier than one the walk keeps, so the first program it completes is
    the one a full enumeration finds first.  Marking a frontier when it is
    generated is enough: the walk expands prefixes in lexicographic order,
    so it generates those of one length in that order too.

    A program of L positions names at most L auxiliary registers, and
    renaming them aux:1, aux:2, ... in order of first use gives a program
    of the same length that computes the same function and comes no later,
    so at length L only the first min(k, L) are tried.  The memo still
    holds across lengths: a completion of a frontier names at most as many
    registers as it has positions, and those the shorter length lacks are 0
    in every row there, so they rename into its free ones.

    Returns None when no program of length up to ``max_len`` computes the
    table.  Raises :class:`SearchBudgetExceeded`, naming the last length
    searched in full, when the walk would expand more than ``max_nodes``
    frontiers in all.  With no output registers every program computes the
    table, so the answer is ``!``.
    """
    if max_len < 0:
        raise ValueError("max_len must be a natural number")
    if max_nodes < 0:
        raise ValueError("max_nodes must be a natural number")
    if table.m == 0:
        return Halt() if max_len else None
    # A row's state is 0 once it ended with the right result; otherwise its
    # registers, one bit per slot, above the number of positions from its
    # position to the end, which is at least 1.  Counted from the end, a
    # state means the same at every length, so the memo holds across lengths.
    width = max_len.bit_length()
    left_of = (1 << width) - 1
    outputs = ((1 << table.m) - 1) << table.n
    starts = [int(bits[::-1] or "0", 2) for bits, _ in table.rows()]
    wants = [None if want is None else int(want[::-1], 2) << table.n for _, want in table.rows()]

    def advance(frontier: tuple, left: int, parked: list[int], op: _Op) -> Optional[tuple]:
        """The frontier after ``op`` at the position ``left`` positions from
        the end, or None if a row parked there ends with the wrong result,
        or moves on into a state where another row wants another result."""
        child = list(frontier)
        moved = {}  # the new state of each row that moves on, to its wanted result
        for r in parked:
            regs = frontier[r] >> width
            if op is None:
                if regs & outputs != wants[r]:
                    return None
                child[r] = 0
                continue
            if type(op) is int:
                step = op or left  # #0 is inaction, like running past the end
            else:
                slot, effect0, effect1, step0, step1 = op
                if (regs >> slot) & 1:
                    step = step1
                    if not effect1:
                        regs -= 1 << slot
                else:
                    step = step0
                    if effect0:
                        regs += 1 << slot
            if step < left:
                want = wants[r]
                if want is not None and ((regs & outputs) ^ want).bit_count() >= left - step:
                    return None  # w wrong output bits need w writes and a ``!``
                state = child[r] = regs << width | (left - step)
                if moved.setdefault(state, want) != want:
                    return None
            elif wants[r] is None:
                child[r] = 0
            else:
                return None
        if moved:
            for state, want in zip(child, wants):
                if state in moved and moved[state] != want:
                    return None  # two rows in one state end alike
        return tuple(child)

    seen: list[set] = [set()]  # frontiers met, by the number of positions left
    visited = 0
    for length, (alphabet, code) in zip(range(1, max_len + 1), _search_alphabets(table.n, table.m, k)):
        seen.append(set())
        # (prefix as symbol indices, frontier); the least prefix on top
        stack = [((), tuple(regs << width | length for regs in starts))]
        while stack:
            prefix, frontier = stack.pop()
            left = length - len(prefix)
            if not left:
                return concat_all(alphabet[i] for i in prefix)
            visited += 1
            if visited > max_nodes:
                raise SearchBudgetExceeded(max_nodes, length - 1)
            parked = [r for r, s in enumerate(frontier) if s & left_of == left]
            children = []
            for i, op in enumerate(code):
                child = advance(frontier, left, parked, op)
                if child is not None and child not in seen[left - 1]:
                    seen[left - 1].add(child)
                    children.append((prefix + (i,), child))
            stack.extend(reversed(children))
    return None
