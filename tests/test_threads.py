import pytest

from iseq.syntax import AbstractAction
from iseq.threads import (
    DEAD,
    STOP,
    TAU,
    Branch,
    Dead,
    RegularThread,
    Stop,
    minimize,
    project,
    render_thread,
    threads_equal,
)

from .oracles import branch, prefix_action

A = AbstractAction("a")
B = AbstractAction("b")


def loop_a():
    # x = a . x
    return RegularThread((Branch(A, 0, 0),), 0)


def double_loop_a():
    # y = a . a . y
    return RegularThread((Branch(A, 1, 1), Branch(A, 0, 0)), 0)


def test_projection_depth_zero_is_dead():
    assert threads_equal(project(loop_a(), 0), DEAD)
    assert threads_equal(project(STOP, 0), DEAD)


def test_projection_of_loop():
    expected = prefix_action(A, prefix_action(A, DEAD))
    assert threads_equal(project(loop_a(), 2), expected)


def test_projection_of_a_deep_loop():
    # one state per level, built without recursion
    deep = project(loop_a(), 5000)
    assert len(deep.nodes) == 5001
    assert deep.nodes[4999] == Branch(A, 5000, 5000) and deep.nodes[5000] == Dead()


def test_projection_preserves_stop():
    assert threads_equal(project(STOP, 3), STOP)


def test_projection_monotone_agreement():
    t = branch(A, prefix_action(B, STOP), loop_a())
    for n in range(5):
        assert threads_equal(project(project(t, n + 1), n), project(t, n))


def test_minimize_merges_unwindings():
    assert minimize(loop_a()) == minimize(double_loop_a())
    assert len(minimize(double_loop_a()).nodes) == 1


def test_minimize_keeps_tau_labels():
    t = prefix_action(TAU, STOP)
    m = minimize(t)
    assert len(m.nodes) == 2
    assert isinstance(m.node(0), Branch) and m.node(0).action is TAU


def test_minimize_idempotent():
    t = branch(A, prefix_action(B, STOP), DEAD)
    assert minimize(minimize(t)) == minimize(t)


def test_tau_branches_normalized_at_construction():
    t = RegularThread((Branch(TAU, 1, 2), Stop(), Dead()), 0)
    assert t.node(0).on_false == t.node(0).on_true == 1


def test_threads_equal_loop_unwinding():
    assert threads_equal(loop_a(), double_loop_a())


def test_threads_equal_distinguishes_stop_dead():
    assert not threads_equal(STOP, DEAD)


def test_threads_equal_isomorphism_invariance():
    t1 = branch(A, prefix_action(B, STOP), DEAD)
    # same shape, different state numbering
    t2 = RegularThread(
        (Stop(), Branch(B, 0, 0), Dead(), Branch(A, 1, 2)),
        3,
    )
    assert threads_equal(t1, t2)


def test_aip_bound_equivalence_on_projections():
    import random

    from .genterms import random_term
    from iseq.extraction import extract

    rng = random.Random(23)
    for _ in range(60):
        t1 = extract(random_term(rng, 6))
        t2 = extract(random_term(rng, 6))
        bound = len(t1.nodes) * len(t2.nodes) + 1
        projections_agree = all(
            threads_equal(project(t1, n), project(t2, n)) for n in range(bound + 1)
        )
        assert projections_agree == threads_equal(t1, t2)


def test_render_equations():
    assert render_thread(STOP) == "X0 = S"
    assert render_thread(DEAD) == "X0 = D"
    x = RegularThread((Branch(A, 1, 0), Branch(B, 2, 2), Stop()), 0)
    assert render_thread(x) == "X0 = (X1) <a> (X0)\nX1 = (S) <b> (S)"


def test_invalid_threads_rejected():
    with pytest.raises(ValueError):
        RegularThread((), 0)
    with pytest.raises(ValueError):
        RegularThread((Branch(A, 0, 5),), 0)
    with pytest.raises(ValueError):
        RegularThread((Stop(),), 3)
