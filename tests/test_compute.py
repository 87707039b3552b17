import itertools
import random

import pytest

from iseq.compute import (
    IoConvention,
    compile_table,
    computes_check,
    functionally_equivalent,
    induced_table,
    restrict_to_core,
    search_shortest,
)
from iseq.extraction import extract
from iseq.interaction import Outcome, apply, simulate, use
from iseq.syntax import (
    Focus,
    FunctionTable,
    Halt,
    Jump,
    NegTest,
    Plain,
    PosTest,
    RegisterAction,
    UnaryBoolFunc,
    concat_all,
    content_of_bit,
    iter_basics,
    leaves,
    parse_function_table,
    parse_instruction_sequence as parse,
    table_from_rows,
)

from .genterms import CORE_PAIRS, random_register_program

ID_TABLE = parse_function_table("inputs 1 outputs 1\n0 -> 0\n1 -> 1\n")
CONST_TRUE = parse_function_table("inputs 0 outputs 1\n -> 1\n")


def conv_foci(conv):
    return (
        [conv.in_focus(i) for i in range(1, conv.n + 1)]
        + [conv.out_focus(i) for i in range(1, conv.m + 1)]
        + [conv.aux_focus(i) for i in range(1, conv.k + 1)]
    )


def random_table(rng, n, m):
    outputs = []
    for _ in range(2**n):
        if rng.random() < 0.25:
            outputs.append(None)
        else:
            outputs.append("".join(rng.choice("01") for _ in range(m)))
    return FunctionTable(n, m, tuple(outputs))


# -- computes_check --------------------------------------------------------------


def test_identity_program_computes_identity():
    assert computes_check(parse("+in:1.i/i;#2;!;out:1.1/1;!"), ID_TABLE, 0)


def test_zero_jump_computes_everywhere_undefined():
    table = table_from_rows(1, 1, {"0": None, "1": None})
    assert computes_check(parse("#0"), table, 0)


def test_constant_true_program():
    assert computes_check(parse("out:1.1/1;!"), CONST_TRUE, 0)


def test_computes_rejects_wrong_program():
    swapped = table_from_rows(1, 1, {"0": "1", "1": "0"})
    assert not computes_check(parse("+in:1.i/i;#2;!;out:1.1/1;!"), swapped, 0)


def test_computes_errors():
    for text in ("(a)*", "+in:1.i/i;(out:1.1/1;!)*"):  # repetition
        for call in (
            lambda: computes_check(parse(text), ID_TABLE, 0),
            lambda: induced_table(parse(text), IoConvention(1, 1, 0)),
            lambda: restrict_to_core(parse(text), IoConvention(1, 1, 0)),
        ):
            with pytest.raises(ValueError, match="^program must be repetition-free$"):
                call()
    with pytest.raises(ValueError):
        computes_check(parse("f.i/i;!"), ID_TABLE, 0)  # foreign focus
    with pytest.raises(ValueError):
        computes_check(parse("aux:2.i/i;!"), ID_TABLE, 1)  # aux out of range
    with pytest.raises(ValueError):
        computes_check(parse("a;!"), ID_TABLE, 0)  # abstract action


def test_computes_agrees_with_simulate_oracle():
    rng = random.Random(79)
    for _ in range(60):
        n, m, k = rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 1)
        conv = IoConvention(n, m, k)
        prog, _ = random_register_program(rng, conv_foci(conv), rng.randint(1, 8))
        table_rows = {}
        for v in range(2**n):
            bits = format(v, f"0{n}b") if n else ""
            regs = {conv.in_focus(i + 1): content_of_bit(b == "1") for i, b in enumerate(bits)}
            regs.update({conv.aux_focus(i): content_of_bit(False) for i in range(1, k + 1)})
            regs.update({conv.out_focus(i): content_of_bit(False) for i in range(1, m + 1)})
            outcome, final = simulate(prog, regs, 10_000)
            if outcome is Outcome.TERMINATED:
                table_rows[bits] = "".join(
                    "1" if final[conv.out_focus(i)].value == "1" else "0"
                    for i in range(1, m + 1)
                )
            else:
                table_rows[bits] = None
        table = table_from_rows(n, m, table_rows)
        assert computes_check(prog, table, k)


def definitional_outputs(prog, conv):
    """Induced rows by the paper's route: extract, use on in/aux, apply on out."""
    thread = extract(prog)
    outputs = []
    for bits in map("".join, itertools.product("01", repeat=conv.n)):
        used_on = {conv.in_focus(i): content_of_bit(b == "1") for i, b in enumerate(bits, start=1)}
        used_on.update({conv.aux_focus(i): content_of_bit(False) for i in range(1, conv.k + 1)})
        result = apply(use(thread, used_on), {conv.out_focus(i): content_of_bit(False) for i in range(1, conv.m + 1)})
        outputs.append(
            "".join(result[conv.out_focus(i)].token for i in range(1, conv.m + 1)) if result else None
        )
    return tuple(outputs)


def test_kernel_matches_definition_on_every_single_instruction():
    conv = IoConvention(1, 1, 1)
    programs = [Halt()] + [Jump(l) for l in range(3)]
    for focus, reply, effect, kind in itertools.product(
        conv_foci(conv), UnaryBoolFunc, UnaryBoolFunc, (Plain, PosTest, NegTest)
    ):
        programs.append(kind(RegisterAction(focus, reply, effect)))
    assert len(programs) == 148
    for prog in programs:
        assert induced_table(prog, conv).outputs == definitional_outputs(prog, conv), prog


def test_kernel_matches_definition_on_seeded_programs():
    rng = random.Random(97)
    conv = IoConvention(2, 2, 1)
    seen = set()
    for _ in range(300):
        prog, noncore = random_register_program(rng, conv_foci(conv), rng.randint(3, 10))
        instrs = leaves(prog)
        for pos, instr in enumerate(instrs, start=1):
            if isinstance(instr, Jump):
                seen.add("#0" if instr.offset == 0 else "past end" if pos + instr.offset > len(instrs) else "#l")
        if noncore:
            seen.add("non-core")
        assert induced_table(prog, conv).outputs == definitional_outputs(prog, conv), prog
    assert seen == {"#0", "past end", "#l", "non-core"}


# -- functional equivalence -------------------------------------------------------


def test_functional_equivalence_reflexive():
    prog = parse("+in:1.i/i;#2;!;out:1.1/1;!")
    assert functionally_equivalent(prog, prog, IoConvention(1, 1, 0))


def test_functional_equivalence_of_rewritten_identity():
    prog1 = parse("+in:1.i/i;#2;!;out:1.1/1;!")
    prog2 = parse("-in:1.i/i;#3;out:1.1/1;!;!")
    assert functionally_equivalent(prog1, prog2, IoConvention(1, 1, 0))


def test_functional_inequivalence_of_constants():
    assert not functionally_equivalent(
        parse("out:1.1/1;!"), parse("out:1.0/0;!"), IoConvention(0, 1, 0)
    )


# -- compile_table ----------------------------------------------------------------


def test_compile_identity_table():
    prog = compile_table(ID_TABLE)
    assert computes_check(prog, ID_TABLE, 0)


def test_compile_constant_table():
    prog = compile_table(CONST_TRUE)
    assert computes_check(prog, CONST_TRUE, 0)


def test_compile_everywhere_undefined():
    table = table_from_rows(1, 1, {"0": None, "1": None})
    prog = compile_table(table)
    assert computes_check(prog, table, 0)


def test_compile_uses_core_instructions_only():
    rng = random.Random(83)
    for _ in range(20):
        table = random_table(rng, rng.randint(0, 2), rng.randint(1, 2))
        prog = compile_table(table)
        for basic in iter_basics(prog):
            assert (basic.reply, basic.effect) in CORE_PAIRS
        assert computes_check(prog, table, 0)


def test_compile_all_unary_partial_tables():
    for out0, out1 in itertools.product(("0", "1", None), repeat=2):
        table = table_from_rows(1, 1, {"0": out0, "1": out1})
        assert computes_check(compile_table(table), table, 0)


# -- restrict_to_core ---------------------------------------------------------------


def _noncore_count(term):
    return sum(1 for b in iter_basics(term) if (b.reply, b.effect) not in CORE_PAIRS)


def test_restrict_core_program_unchanged_in_length():
    prog = parse("+in:1.i/i;#2;!;out:1.1/1;!")
    core = restrict_to_core(prog, IoConvention(1, 1, 0))
    assert len(leaves(core)) == len(leaves(prog))
    assert functionally_equivalent(prog, core, IoConvention(1, 1, 0))


def test_restrict_translates_plain_complement():
    conv = IoConvention(0, 1, 1)
    prog = parse("aux:1.c/c;+aux:1.i/i;out:1.1/1;!")
    core = restrict_to_core(prog, conv)
    for basic in iter_basics(core):
        assert (basic.reply, basic.effect) in CORE_PAIRS
    assert functionally_equivalent(prog, core, conv)
    assert len(leaves(core)) <= len(leaves(prog)) + 3


def test_restrict_per_block_soundness_all_48_forms():
    """Each instruction form, embedded in an exit-observing harness, must
    behave identically after translation, for both register contents."""
    conv = IoConvention(0, 2, 1)
    focus = Focus("aux", 1)
    mark_next = Plain(RegisterAction(Focus("out", 1), UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE))
    mark_skip = Plain(RegisterAction(Focus("out", 2), UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE))
    for kind, reply, effect in itertools.product(
        (Plain, PosTest, NegTest), UnaryBoolFunc, UnaryBoolFunc
    ):
        instr = kind(RegisterAction(focus, reply, effect))
        harness = concat_all(
            [instr, Jump(3), Jump(5), Jump(0), mark_next, Halt(), Jump(0), mark_skip, Halt()]
        )
        core = restrict_to_core(harness, conv)
        for basic in iter_basics(core):
            assert (basic.reply, basic.effect) in CORE_PAIRS
        noncore = _noncore_count(harness)
        assert len(leaves(core)) <= len(leaves(harness)) + 3 * noncore
        for bit in (False, True):
            family = {focus: content_of_bit(bit)}
            assert simulate(harness, dict(family), 1000) == simulate(core, dict(family), 1000)


def test_restrict_random_programs_equivalent_and_core_only():
    rng = random.Random(89)
    over_budget = []
    for _ in range(120):
        n, m, k = rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 1)
        conv = IoConvention(n, m, k)
        prog, noncore = random_register_program(
            rng, conv_foci(conv), rng.randint(3, 10), max_noncore=4
        )
        core = restrict_to_core(prog, conv)
        for basic in iter_basics(core):
            assert (basic.reply, basic.effect) in CORE_PAIRS
        assert functionally_equivalent(prog, core, conv)
        growth = len(leaves(core)) - len(leaves(prog))
        if growth > 3 * noncore:
            over_budget.append(growth - 3 * noncore)
    # the translation meets the three-per-instruction budget on the vast
    # majority of programs; the known hard adjacencies exceed it by a hair
    assert len(over_budget) <= 3
    assert all(excess <= 2 for excess in over_budget)


def test_restrict_exhaustive_up_to_length_2():
    """All 22,350 programs of length 1 and 2 under IoConvention(1, 1, 1).

    The alphabet is ``!``, ``#0``..``#3`` and the 144 register forms
    (3 kinds x 4 replies x 4 effects) on ``in:1``, ``out:1`` and ``aux:1``:
    149 + 149**2 programs.  Every output is core-only and computes the same
    function.  Exactly 36 outputs exceed the budget of three instructions
    per non-core instruction, each by one: a core test that can skip,
    directly before a complement that always skips.
    """
    conv = IoConvention(1, 1, 1)
    foci = (Focus("in", 1), Focus("out", 1), Focus("aux", 1))
    alphabet = [Halt()] + [Jump(k) for k in range(4)] + [
        kind(RegisterAction(focus, reply, effect))
        for focus in foci
        for kind in (Plain, PosTest, NegTest)
        for reply in UnaryBoolFunc
        for effect in UnaryBoolFunc
    ]
    cases = over_budget = 0
    for length in (1, 2):
        for instrs in itertools.product(alphabet, repeat=length):
            prog = concat_all(instrs)
            core = restrict_to_core(prog, conv)
            assert all((b.reply, b.effect) in CORE_PAIRS for b in iter_basics(core))
            assert induced_table(core, conv) == induced_table(prog, conv)
            excess = len(leaves(core)) - length - 3 * _noncore_count(prog)
            assert excess <= 1
            over_budget += excess > 0
            cases += 1
    assert cases == 22_350
    assert over_budget == 36


# -- search ---------------------------------------------------------------------------


def test_search_finds_minimal_identity():
    prog = search_shortest(ID_TABLE, 0, 4)
    assert prog is not None
    assert len(leaves(prog)) == 3
    assert computes_check(prog, ID_TABLE, 0)
    assert search_shortest(ID_TABLE, 0, 2) is None


def test_search_finds_minimal_constant_true():
    prog = search_shortest(CONST_TRUE, 0, 3)
    assert prog is not None
    assert len(leaves(prog)) == 2
    assert search_shortest(CONST_TRUE, 0, 1) is None


def test_search_impossible_budget_returns_none():
    assert search_shortest(ID_TABLE, 0, 1) is None
    assert search_shortest(ID_TABLE, 0, 0) is None


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        search_shortest(ID_TABLE, 0, -1)


def test_search_is_deterministic():
    a = search_shortest(ID_TABLE, 0, 3)
    b = search_shortest(ID_TABLE, 0, 3)
    assert a == b
