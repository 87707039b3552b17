"""Tests of the benchmark itself: its oracles, its tracer and its time unit.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as orc  # noqa: E402
import search_ref  # noqa: E402
import workloads  # noqa: E402


def unf(text):
    return orc.Unfolding.of(orc.parse(text))


# ---------------------------------------------------------------------------
# oracles on hand-worked cases


def test_parse_render_and_flatten():
    term = orc.parse("(-a;(#3;(b;!)))*")
    assert orc.flatten(term) == ([], [("act", "-", ("abs", "a")), ("jump", 3), ("act", "", ("abs", "b")), ("halt",)])
    assert orc.render(term) == "(-a;(#3;(b;!)))*"
    # whatever follows an infinite part is unreachable
    assert orc.flatten(orc.parse("a;b*;c")) == ([("act", "", ("abs", "a"))], [("act", "", ("abs", "b"))])
    assert orc.parse("+aux:2.i/c") == ("act", "+", ("reg", "aux:2", "i", "c"))


def test_unfolding_wraps_into_the_period():
    u = unf("a;(b;c)*")
    assert [orc.instr_text(u.at(p)) for p in range(1, 7)] == ["a", "b", "c", "b", "c", "b"]
    assert unf("a;b").at(3) is None


def test_step_term_follows_tests_and_jumps():
    u = unf("+a;#2;b;!")
    # reply true: proceed to #2, which jumps onto the termination
    assert orc.step_term(u, [True]) == ([("a", True)], "S")
    # reply false: skip to b, then terminate
    assert orc.step_term(u, [False, True]) == ([("a", False), ("b", True)], "S")
    # a negative test skips on true
    assert orc.step_term(unf("-a;b;!"), [True]) == ([("a", True)], "S")
    assert orc.step_term(unf("a;#0"), [True]) == ([("a", True)], "D")
    assert orc.step_term(unf("a;#5;b"), [True]) == ([("a", True)], "D")
    assert orc.step_term(unf("a;(#1)*"), [True]) == ([("a", True)], "D")  # jump cycle
    assert orc.step_term(unf("(a)*"), [True] * 3, max_actions=3) == ([("a", True)] * 3, "F")


def test_step_term_on_registers():
    u = unf("+r1.i/c;r2.1/1;!")
    # known registers act internally, unknown ones stay observable
    assert orc.step_term(u, [False], family={"r1": "1"}) == ([("tau",), ("r2.1/1", False)], "S")
    assert orc.step_term(u, [], family={"r1": "-"}) == ([], "D")
    # concealed: an internal cycle is inactive
    assert orc.step_term(unf("(r1.c/c)*"), [], family={"r1": "0"}, hide_tau=True) == ([], "D")


def test_step_thread_on_equations():
    table = orc.parse_equations("X0 = (S) <a> (X1)\nX1 = (X0) <tau> (X0)")
    assert orc.step_thread(table, [True]) == ([("a", True)], "S")
    assert orc.step_thread(table, [False, True]) == ([("a", False), ("tau",), ("a", True)], "S")
    assert orc.step_thread(orc.parse_equations("X0 = D"), []) == ([], "D")


def test_flat_interpreter_and_induced_tables():
    ident = orc.leaves(orc.parse("+in:1.i/i;out:1.1/1;!"))
    assert orc.flat_induced(ident, 1, 1, 0) == ("0", "1")
    partial = orc.leaves(orc.parse("+in:1.i/i;#0;!"))
    assert orc.flat_induced(partial, 1, 1, 0) == ("0", None)
    # complement on an auxiliary register, read back into the output
    flip = orc.leaves(orc.parse("aux:1.c/c;+aux:1.i/i;out:1.1/1;!"))
    assert orc.flat_induced(flip, 1, 1, 1) == ("1", "1")
    assert orc.is_core_program(ident, 1, 1, 0)
    assert not orc.is_core_program(flip, 1, 1, 1)
    assert not orc.is_core_program(ident, 0, 1, 0)  # in:1 outside the convention


def test_apply_and_simulate_runs():
    assert orc.apply_run(unf("r1.c/c;!"), {"r1": "0"}) == {"r1": "1"}
    assert orc.apply_run(unf("(r1.i/i)*"), {"r1": "1"}) == {}  # divergence
    assert orc.apply_run(unf("r2.c/c;!"), {"r1": "0"}) == {}  # unknown register
    prog = unf("r1.1/1;r1.0/0;!")
    assert orc.simulate_run(prog, {"r1": "0"}, 2) == ("fuel-exhausted", {"r1": "0"})
    assert orc.simulate_run(prog, {"r1": "0"}, 3) == ("terminated", {"r1": "0"})
    assert orc.simulate_run(unf("#3;!"), {}, 5) == ("inactive", {})


def test_family_evaluator():
    term =("compose", ("bind", [("f", "1"), ("g", "0")]), ("bind", [("f", "0")]))
    assert orc.eval_family(term) == {"f": "-", "g": "0"}
    assert orc.eval_family(("hide", ["g"], term)) == {"f": "-"}
    assert orc.eval_family(("bind", [("r", "1"), ("r", "0"), ("r", "1")])) == {"r": "-"}
    assert orc.parse_family("{aux:1=0, f=-}") == {"aux:1": "0", "f": "-"}
    assert orc.parse_family("{}") == {}


def test_own_compile_computes_every_table():
    rng = random.Random(7)
    for n in range(0, 4):
        for m in (1, 2):
            table = workloads.rand_table(rng, n, m)
            prog = workloads.own_compile(table, n, m)
            assert orc.is_core_program(prog, n, m, 0)
            assert orc.flat_induced(prog, n, m, 0) == table


def test_mutant_is_changed_at_a_reachable_action():
    rng = random.Random(3)
    prefix, period = orc.flatten(orc.parse("+a;#2;b;c;!"))
    mutant = orc.flatten(workloads.mutant_of(rng, prefix, period))[0]
    changed = [i for i, (x, y) in enumerate(zip(prefix, mutant)) if x != y]
    assert len(changed) == 1 and mutant[changed[0]][2] == ("abs", "z")
    assert workloads.reachable_actions(orc.Unfolding(prefix, period)) == [1, 3, 4]


def test_search_reference_lengths():
    lengths = search_ref.shortest_lengths(1, 1, 0)
    assert lengths["1,1,0:0,0"] == 1  # !
    assert lengths["1,1,0:_,_"] == 1  # #0
    assert lengths["1,1,0:0,_"] == 2  # -in:1.i/i;!
    assert lengths["1,1,0:0,1"] == 3  # +in:1.i/i;out:1.1/1;!
    stored = search_ref.load()
    assert stored["cap"] == search_ref.CAP
    assert {k: v for k, v in stored["lengths"].items() if k.startswith("1,1,0:")} == lengths


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_binding_of_every_public_function():
    from run import import_iseq
    from tracer import Tracer, public_functions

    pkg = import_iseq()
    tracer = Tracer(pkg)
    originals = {id(fn): (layer, name) for layer, name, fn in tracer.functions}
    modules = [m for n, m in sys.modules.items() if n == "iseq" or n.startswith("iseq.")]
    bound = [(m, a) for m in modules for a, v in vars(m).items() if id(v) in originals]
    # functions imported by name into other modules are found too
    assert (pkg.compute, "extract") in bound and (pkg, "minimize") in bound
    assert len(tracer.functions) == sum(len(public_functions(m)) for m in tracer.layers.values())
    tracer.install()
    try:
        for module, attr in bound:
            wrapped = getattr(module, attr)
            assert id(wrapped) not in originals and id(wrapped.__wrapped__) in originals
        table = pkg.FunctionTable(1, 1, ("0", "1"))
        prog = pkg.compile_table(table)
        assert pkg.computes_check(prog, table, 0)
    finally:
        tracer.uninstall()
    assert all(id(getattr(m, a)) in originals for m, a in bound)
    names = {span[0] for span in tracer.spans}
    # internal calls made through names imported from other modules
    assert {"compute.computes_check", "extraction.extract", "threads.minimize", "interaction.use"} <= names
    assert tracer.calls["compute"] == 2
    assert tracer.counts["compute.compile_out_instrs"] == len(workloads.own_leaves(prog))
    assert all(start <= end for _, start, end, _ in tracer.spans)
    assert sum(tracer.self_s.values()) <= max(end for _, _, end, _ in tracer.spans) - min(
        start for _, start, _, _ in tracer.spans
    )


# ---------------------------------------------------------------------------
# the time unit


def test_calibration_imports_nothing_from_iseq():
    with open(os.path.join(HERE, "calibrate.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] in ("iseq", "workloads", "oracles", "tracer")]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calibrate; calibrate.time_calibration(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'iseq'))"
    )
    out = subprocess.run([sys.executable, "-B", "-c", probe, HERE], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
