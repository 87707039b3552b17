"""Acceptance suite: one test per criterion, one printed verdict line each.

All randomized criteria draw from a fixed seed so the corpus is stable
across runs.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import random

from iseq.canonical import instruction_sequence_congruent, structurally_congruent
from iseq.compute import (
    IoConvention,
    compile_table,
    computes_check,
    functionally_equivalent,
    restrict_to_core,
    search_shortest,
)
from iseq.extraction import (
    behaviourally_congruent,
    behaviourally_equivalent,
    extract,
    synthesize_repetition,
)
from iseq.interaction import Outcome, abstract_tau, apply, simulate, use
from iseq.registers import evaluate_family
from iseq.syntax import (
    AbstractAction,
    Focus,
    FunctionTable,
    Jump,
    Plain,
    PosTest,
    NegTest,
    RegisterAction,
    Repeat,
    UnaryBoolFunc,
    concat_all,
    leaves,
    parse_instruction_sequence as parse,
    parse_register_family,
    table_from_rows,
)
from iseq.threads import (
    DEAD,
    STOP,
    TAU,
    Branch,
    Dead,
    RegularThread,
    Stop,
    minimize,
)

from .genterms import CORE_PAIRS, equal_variant, random_register_program, random_term
from .oracles import content_of_bit, iter_basics, prefix_action

SEED = 20240810


def _report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_golden_structural_derivations():
    ok = (
        instruction_sequence_congruent(parse("(a;b)*;c"), parse("a;(b;a)*"))
        and instruction_sequence_congruent(
            parse("+a;(b;(-c;#2;!)*)*"), parse("+a;b;(-c;#2;!)*")
        )
        and structurally_congruent(parse("-a;#2;(+b;#2)*"), parse("-a;#0;(+b;#0)*"))
        and not instruction_sequence_congruent(
            parse("-a;#2;(+b;#2)*"), parse("-a;#0;(+b;#0)*")
        )
        and structurally_congruent(parse("+a;#6;b;(-c;#9)*"), parse("+a;#2;b;(-c;#1)*"))
        and not instruction_sequence_congruent(
            parse("+a;#6;b;(-c;#9)*"), parse("+a;#2;b;(-c;#1)*")
        )
    )
    _report(1, ok, "golden instruction-sequence and structural congruences")


def test_criterion_02_golden_extraction():
    a, b = AbstractAction("a"), AbstractAction("b")
    branch_thread = extract(parse("+a;#2;#3;b;!"))
    expected = minimize(
        RegularThread((Branch(a, 1, 3), Branch(b, 2, 2), Stop(), Dead()), 0)
    )
    loop_thread = extract(parse("(+a;#2;#3;b;!)*"))
    expected_loop = minimize(RegularThread((Branch(a, 1, 0), Branch(b, 2, 2), Stop()), 0))
    ok = (
        branch_thread == expected
        and len(branch_thread.nodes) == 4
        and loop_thread == expected_loop
        and extract(parse("(#1)*")) == minimize(DEAD)
    )
    _report(2, ok, "golden thread extractions (branch, loop, jump chain)")


def test_criterion_03_golden_behavioural_relations():
    ok = (
        behaviourally_equivalent(parse("a;#2;+b;!"), parse("a;#2;+c;!"))
        and behaviourally_equivalent(parse("(+a;#2;#3;b;!)*"), parse("(-a;#3;b;!)*"))
        and not behaviourally_congruent(parse("a;#2;+b;!"), parse("a;#2;+c;!"))
        and not behaviourally_congruent(parse("(+a;#2;#3;b;!)*"), parse("(-a;#3;b;!)*"))
        and behaviourally_congruent(parse("(+a;#3;#2;b)*"), parse("(-a;#3;#2;b)*"))
        and behaviourally_congruent(parse("+a;!;!"), parse("-a;!;!"))
        and not structurally_congruent(parse("+a;!;!"), parse("-a;!;!"))
    )
    _report(3, ok, "golden behavioural equivalences and congruences")


def test_criterion_04_golden_register_interaction():
    prog = parse(";".join(f"-aux:{i}.i/i;#3;aux:{i}.0/0;!;aux:{i}.1/1" for i in range(1, 5)))
    family = evaluate_family(parse_register_family("{aux:4=1, aux:3=1, aux:2=1, aux:1=0}"))
    used = use(extract(prog), dict(family))
    tau_chain = prefix_action(TAU, prefix_action(TAU, prefix_action(TAU, prefix_action(TAU, STOP))))
    expected_family = evaluate_family(
        parse_register_family("{aux:4=1, aux:3=1, aux:2=0, aux:1=1}")
    )
    ok = (
        used == minimize(tau_chain)
        and len(used.nodes) == 5
        and apply(extract(prog), dict(family)) == expected_family
        and abstract_tau(used) == STOP
    )
    _report(4, ok, "decrement program: use, apply and abstraction")


def test_criterion_05_structural_congruence_implies_behavioural():
    rng = random.Random(SEED)
    violations = 0
    for index in range(500):
        t1 = random_term(rng, 12)
        t2 = equal_variant(rng, t1) if index % 2 == 0 else random_term(rng, 12)
        if structurally_congruent(t1, t2) and not behaviourally_congruent(t1, t2):
            violations += 1
    _report(5, violations == 0, f"500 pairs, {violations} violations of the implication")


def test_criterion_06_single_repetition_synthesis():
    rng = random.Random(SEED + 1)
    failures = 0
    for _ in range(200):
        t = random_term(rng, 10)
        if not behaviourally_equivalent(t, Repeat(synthesize_repetition(t))):
            failures += 1
    _report(6, failures == 0, f"200 terms resynthesized as a single repetition, {failures} failures")


def test_criterion_07_table_compilation():
    rng = random.Random(SEED + 2)
    failures = 0
    count = 0
    for out0, out1 in itertools.product(("0", "1", None), repeat=2):
        table = table_from_rows(1, 1, {"0": out0, "1": out1})
        count += 1
        if not computes_check(compile_table(table), table, 0):
            failures += 1
    for _ in range(50):
        n, m = 2, rng.choice((1, 2))
        outputs = tuple(
            None if rng.random() < 0.25 else "".join(rng.choice("01") for _ in range(m))
            for _ in range(2**n)
        )
        table = FunctionTable(n, m, outputs)
        count += 1
        if not computes_check(compile_table(table), table, 0):
            failures += 1
    _report(7, failures == 0, f"{count} tables compiled and checked, {failures} failures")


def _convention_foci(conv: IoConvention):
    return (
        [conv.in_focus(i) for i in range(1, conv.n + 1)]
        + [conv.out_focus(i) for i in range(1, conv.m + 1)]
        + [conv.aux_focus(i) for i in range(1, conv.k + 1)]
    )


def test_criterion_08_core_restriction():
    rng = random.Random(SEED + 3)
    not_core = wrong_function = over_bound = 0
    for _ in range(200):
        conv = IoConvention(rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 1))
        prog, noncore = random_register_program(
            rng, _convention_foci(conv), rng.randint(3, 10), max_noncore=4
        )
        core = restrict_to_core(prog, conv)
        if any((b.reply, b.effect) not in CORE_PAIRS for b in iter_basics(core)):
            not_core += 1
        if not functionally_equivalent(prog, core, conv):
            wrong_function += 1
        if len(leaves(core)) - len(leaves(prog)) > 3 * noncore:
            over_bound += 1

    # exhaustive per-block soundness: all 48 instruction forms, both contents
    block_failures = 0
    conv = IoConvention(0, 2, 1)
    focus = Focus("aux", 1)
    mark_next = Plain(RegisterAction(Focus("out", 1), UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE))
    mark_skip = Plain(RegisterAction(Focus("out", 2), UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE))
    for kind, reply, effect in itertools.product((Plain, PosTest, NegTest), UnaryBoolFunc, UnaryBoolFunc):
        harness = concat_all(
            [kind(RegisterAction(focus, reply, effect)), Jump(3), Jump(5), Jump(0),
             mark_next, parse("!"), Jump(0), mark_skip, parse("!")]
        )
        core = restrict_to_core(harness, conv)
        for bit in (False, True):
            family = {focus: content_of_bit(bit)}
            if simulate(harness, dict(family), 1000) != simulate(core, dict(family), 1000):
                block_failures += 1
    ok = not_core == 0 and wrong_function == 0 and over_bound == 0 and block_failures == 0
    _report(
        8,
        ok,
        "200 programs restricted to the core set: "
        f"{not_core} non-core outputs, {wrong_function} inequivalent, "
        f"{over_bound} over the 3-per-instruction budget; "
        f"48-form block check failures: {block_failures}",
    )


def test_criterion_09_oracle_triangulation():
    rng = random.Random(SEED + 4)
    foci = [Focus("f"), Focus("g"), Focus("h")]
    disagreements = 0
    for _ in range(300):
        prog, _ = random_register_program(rng, foci, rng.randint(1, 8))
        thread = extract(prog)
        for bits in itertools.product((False, True), repeat=3):
            family = {f: content_of_bit(b) for f, b in zip(foci, bits)}
            outcome, sim_family = simulate(prog, dict(family), 10_000)
            algebraic = apply(thread, dict(family))
            concealed = abstract_tau(use(thread, dict(family)))
            if outcome is Outcome.TERMINATED:
                agreed = algebraic == sim_family and concealed == STOP
            else:
                agreed = (
                    outcome is Outcome.INACTIVE and algebraic == {} and concealed == DEAD
                )
            if not agreed:
                disagreements += 1
    _report(9, disagreements == 0, f"300 programs x 8 families triangulated, {disagreements} disagreements")


def test_criterion_10_search_regression():
    identity = table_from_rows(1, 1, {"0": "0", "1": "1"})
    const_true = table_from_rows(0, 1, {"": "1"})
    id_prog = search_shortest(identity, 0, 4)
    ct_prog = search_shortest(const_true, 0, 3)
    ok = (
        id_prog is not None
        and len(leaves(id_prog)) == 3  # frozen at first build
        and computes_check(id_prog, identity, 0)
        and search_shortest(identity, 0, 2) is None
        and ct_prog is not None
        and len(leaves(ct_prog)) == 2  # frozen at first build
        and computes_check(ct_prog, const_true, 0)
        and search_shortest(const_true, 0, 1) is None
    )
    _report(10, ok, "shortest-program lengths: identity 3, constant-true 2, minimality re-verified")
