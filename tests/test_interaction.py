import functools
import itertools
import random
import time
import tracemalloc

import pytest

from iseq import interaction
from iseq.canonical import to_first_canonical
from iseq.cli import run_command
from iseq.extraction import extract
from iseq.interaction import Outcome, abstract_tau, apply, simulate, unfold, use
from iseq.registers import evaluate_family, render_family
from iseq.syntax import (
    AbstractAction,
    Concat,
    Focus,
    Halt,
    Jump,
    NegTest,
    Plain,
    PosTest,
    RegisterAction,
    RegisterContent,
    Repeat,
    UnaryBoolFunc,
    concat_all,
    flatten,
    leaves,
    parse_instruction_sequence as parse,
    parse_register_family,
)
from iseq.threads import (
    DEAD,
    STOP,
    TAU,
    Branch,
    RegularThread,
    Stop,
    minimize,
    threads_equal,
)

from . import oracles
from .oracles import branch, content_of_bit, prefix_action
from .genterms import random_register_program, random_term

ID = UnaryBoolFunc.IDENTITY


def fam(text):
    return evaluate_family(parse_register_family(text))


def decrement_program():
    text = ";".join(
        f"-aux:{i}.i/i;#3;aux:{i}.0/0;!;aux:{i}.1/1" for i in range(1, 5)
    )
    return parse(text)


def test_use_decrement_gives_four_internal_steps():
    used = use(extract(decrement_program()), fam("{aux:4=1, aux:3=1, aux:2=1, aux:1=0}"))
    expected = prefix_action(
        TAU, prefix_action(TAU, prefix_action(TAU, prefix_action(TAU, STOP)))
    )
    assert threads_equal(used, expected)
    assert len(used.nodes) == 5


def test_apply_decrement_fourteen_to_thirteen():
    result = apply(extract(decrement_program()), fam("{aux:4=1, aux:3=1, aux:2=1, aux:1=0}"))
    assert result == fam("{aux:4=1, aux:3=1, aux:2=0, aux:1=1}")


def test_use_stop_and_dead_fixed():
    assert use(STOP, fam("{f=1}")) == STOP
    assert use(DEAD, fam("{f=1}")) == DEAD


def test_use_unknown_focus_stays_visible():
    action = RegisterAction(Focus("f"), ID, ID)
    t = branch(action, STOP, DEAD)
    assert threads_equal(use(t, {}), t)


def test_use_inoperative_register_deadlocks():
    action = RegisterAction(Focus("f"), ID, ID)
    t = branch(action, STOP, DEAD)
    assert use(t, fam("{f=-}")) == DEAD


def test_apply_stop_returns_family_unchanged():
    u = fam("{f=1, g=0}")
    assert apply(STOP, u) == u


def test_apply_divergence_yields_empty_family():
    action = RegisterAction(Focus("f"), ID, ID)
    loop = RegularThread((Branch(action, 0, 0),), 0)
    assert apply(loop, fam("{f=1}")) == {}


def test_apply_unknown_focus_yields_empty_family():
    action = RegisterAction(Focus("f"), ID, ID)
    assert apply(branch(action, STOP, STOP), {}) == {}


def test_apply_untouched_bindings_pass_through():
    prog = parse("out:1.1/1;!")
    result = apply(extract(prog), fam("{out:1=0, g=1}"))
    assert result == fam("{out:1=1, g=1}")


def counter_term(r, halt=False):
    """The r-bit counter ``(-f1.i/c;#2r-1;...;-fr.i/c;#1)*``.  It passes
    through all 2^r register contents and then wraps round, so it diverges;
    with ``halt`` its last jump skips to a ``!`` instead, which ends the run
    on the wrap."""
    end = 2 if halt else 1
    body = ";".join(f"-f{i}.i/c;#{2 * (r - i) + end}" for i in range(1, r + 1)) + (";!" if halt else "")
    return parse(f"({body})*")


def counter(r, halt=False):
    """``counter_term(r, halt)``, extracted, and the family of its r
    registers at 0."""
    family = fam("{" + ", ".join(f"f{i}=0" for i in range(1, r + 1)) + "}")
    return extract(counter_term(r, halt)), family


def test_apply_on_the_counter_matches_the_oracle_in_constant_memory():
    """``apply`` on the r-bit counter gives what the oracle's run, which
    keeps every configuration it has seen, gives, for r = 1 to 8, from all
    zeros, from a count one short of the wrap and with an inoperative
    register.  At r = 10 its peak memory stays under 32 KiB: a set of the
    1,024 configurations seen took 160 KiB or more."""
    for r in range(1, 9):
        for halt in (False, True):
            thread, zeros = counter(r, halt)
            ones = {focus: RegisterContent.ONE for focus in zeros}
            stuck = {**ones, list(zeros)[-1]: RegisterContent.INOPERATIVE}
            for family in (zeros, ones, stuck):
                got, want = apply(thread, family), oracles.apply(thread, family)
                assert list(got.items()) == list(want.items()), (r, halt, family)
            assert apply(thread, ones) == (zeros if halt else {})
    thread, family = counter(10)
    tracemalloc.start()
    try:
        assert apply(thread, family) == {}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024, peak


def test_runs_hash_a_focus_per_state_not_per_configuration(monkeypatch):
    """``apply``, ``use`` and ``simulate`` (fuel 10**6) on the 10-bit counter
    from all zeros, whose 10 thread states and 20 positions meet 1,024
    register contents each, call ``Focus.__hash__`` at most 6 times per
    thread state or position: a run holds its registers as bits by slot and
    decodes each state once.  Keyed by ``Focus`` at every step, they made
    8,234, 26,628 and 11,644 calls."""
    thread, family = counter(10)
    term = counter_term(10)
    assert len(thread.nodes) == 10 and len(to_first_canonical(term).period) == 20
    calls = 0
    focus_hash = Focus.__hash__

    def counted(focus):
        nonlocal calls
        calls += 1
        return focus_hash(focus)

    monkeypatch.setattr(Focus, "__hash__", counted)
    runs = [
        (lambda: apply(thread, family), {}, 10),
        (lambda: abstract_tau(use(thread, family)), DEAD, 10),
        (lambda: simulate(term, family, 10**6)[0], Outcome.FUEL_EXHAUSTED, 20),
    ]
    for run, want, states in runs:
        calls = 0
        assert run() == want
        assert calls <= 6 * states, calls


def test_abstract_tau_concealment():
    chain = prefix_action(TAU, prefix_action(TAU, STOP))
    assert abstract_tau(chain) == STOP


def test_abstract_tau_livelock_is_dead():
    loop = RegularThread((Branch(TAU, 0, 0),), 0)
    assert abstract_tau(loop) == DEAD


def test_abstract_tau_keeps_visible_actions():
    a = AbstractAction("a")
    t = branch(a, prefix_action(TAU, STOP), DEAD)
    assert abstract_tau(t) == branch(a, STOP, DEAD)


def tau_comb(n):
    """``A_i = g ? A_(i+1) : T_i`` and ``T_i = tau -> T_(i+1)`` for i < n,
    both ending in Stop: n places enter one tau chain of n states."""
    g = AbstractAction("g")
    nodes = [Branch(g, i + 1, n + i) for i in range(n)] + [Branch(TAU, n + i + 1, n + i + 1) for i in range(n)]
    nodes[n - 1] = Branch(g, 2 * n, 2 * n - 1)
    return RegularThread(tuple(nodes) + (Stop(),))


def test_abstract_tau_is_linear_on_a_tau_comb():
    """Each tau state is walked once, however many places enter its chain:
    the comb of 8,000 teeth takes under 25 times as long as that of 1,000,
    best of 3 (linear work is 8 times; the per-state walk it replaced read
    42 times, CPython 3.11 on a 2-vCPU VM).  Every tooth conceals to Stop,
    so the comb of n teeth conceals to n states ``g ? next : S``."""

    def best(thread):
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            concealed = abstract_tau(thread)
            runs.append(time.perf_counter() - start)
        return concealed, min(runs)

    small, small_time = best(tau_comb(1000))
    large, large_time = best(tau_comb(8000))
    g = AbstractAction("g")
    for n, concealed in ((1000, small), (8000, large)):
        assert concealed == minimize(RegularThread(tuple(Branch(g, i + 1, n) for i in range(n)) + (Stop(),)))
    assert large_time < 25 * small_time


def test_use_on_endless_flip_loop():
    # repeated complementing never terminates: internal livelock
    thread = extract(parse("(f.c/c)*"))
    used = use(thread, fam("{f=0}"))
    assert abstract_tau(used) == DEAD
    assert apply(thread, fam("{f=0}")) == {}


def test_use_rejects_abstract_actions():
    t = branch(AbstractAction("a"), STOP, DEAD)
    with pytest.raises(ValueError):
        use(t, fam("{f=1}"))
    with pytest.raises(ValueError):
        apply(t, fam("{f=1}"))


F, G = Focus("f"), Focus("g")
CONTENTS = (RegisterContent.ZERO, RegisterContent.ONE, RegisterContent.INOPERATIVE)
# the 16 families over f and g, each absent, 0, 1 or inoperative
FAMILIES = [
    {focus: c for focus, c in ((F, cf), (G, cg)) if c is not None}
    for cf in (None, *CONTENTS)
    for cg in (None, *CONTENTS)
]


def used_by_equations(t, family):
    """``t / family`` by the equations of ``use``, on a thread given as
    "S", "D" or (action, P, Q): S and D stay; ``tau o P`` gives ``tau o (P /
    H)``; an action on a register the family does not name stays, with both
    branches used; one on an inoperative register gives D; otherwise the
    register takes the effect and the thread goes on by an internal step to
    P on a true reply and to Q on a false one, used on the changed family."""
    if t in ("S", "D"):
        return t
    action, p, q = t
    if action is TAU:
        return TAU, used_by_equations(p, family), used_by_equations(p, family)
    content = family.get(action.focus)
    if content is None:
        return action, used_by_equations(p, family), used_by_equations(q, family)
    if content is RegisterContent.INOPERATIVE:
        return "D"
    bit = content is RegisterContent.ONE
    after = {**family, action.focus: content_of_bit(action.effect(bit))}
    rest = used_by_equations(p if action.reply(bit) else q, after)
    return TAU, rest, rest


def applied_by_equations(t, family):
    """``t . family`` by the equations of ``apply``: S gives the family, D
    the empty family, ``tau o P`` what P gives; an action on a register the
    family does not name or an inoperative one gives the empty family, and
    otherwise P on a true reply and Q on a false one run on the family the
    effect changed."""
    if t in ("S", "D"):
        return family if t == "S" else {}
    action, p, q = t
    if action is TAU:
        return applied_by_equations(p, family)
    content = family.get(action.focus, RegisterContent.INOPERATIVE)
    if content is RegisterContent.INOPERATIVE:
        return {}
    bit = content is RegisterContent.ONE
    after = {**family, action.focus: content_of_bit(action.effect(bit))}
    return applied_by_equations(p if action.reply(bit) else q, after)


def thread_of(t):
    if t in ("S", "D"):
        return STOP if t == "S" else DEAD
    action, p, q = t
    return branch(action, thread_of(p), thread_of(q))


def test_use_and_apply_follow_their_equations():
    """``use`` and ``apply`` at the root of every thread ``P <a> Q`` (on a
    true reply P, on a false one Q), against ``used_by_equations`` and
    ``applied_by_equations``, which spell out the equations of the
    ``interaction`` docstrings.  The action a is tau, ``f.i/c``, ``g.c/i``,
    ``f.1/0`` or ``g.0/1``, so that replies come out true and false, and P
    and Q are S, D or ``f.1/1 o S``: 45 threads, each on the 16 families over
    f and g (720 cases, each checked for ``use`` by ``threads_equal`` and
    for ``apply`` by ``==``)."""
    actions = [TAU, *(instr.basic for instr in leaves(parse("f.i/c;g.c/i;f.1/0;g.0/1")))]
    ends = ["S", "D", (RegisterAction(F, UnaryBoolFunc.CONST_TRUE, UnaryBoolFunc.CONST_TRUE), "S", "S")]
    cases = 0
    for action, p, q in itertools.product(actions, ends, ends):
        t = (action, p, q)
        thread = thread_of(t)
        for family in FAMILIES:
            assert threads_equal(use(thread, family), thread_of(used_by_equations(t, family))), (t, family)
            assert apply(thread, family) == applied_by_equations(t, family), (t, family)
            cases += 1
    assert cases == 720


# -- simulate -------------------------------------------------------------------


def test_simulate_simple_write():
    outcome, family = simulate(parse("out:1.1/1;!"), fam("{out:1=0}"), 10)
    assert outcome is Outcome.TERMINATED
    assert family == fam("{out:1=1}")


def test_simulate_zero_jump_inactive():
    assert simulate(parse("#0"), {}, 10) == (Outcome.INACTIVE, {})


def test_simulate_decrement():
    outcome, family = simulate(
        decrement_program(), fam("{aux:1=0, aux:2=1, aux:3=1, aux:4=1}"), 100
    )
    assert outcome is Outcome.TERMINATED
    assert family == fam("{aux:1=1, aux:2=0, aux:3=1, aux:4=1}")


def test_simulate_fuel_bounds_divergence():
    outcome, _ = simulate(parse("(f.i/i)*"), fam("{f=1}"), 25)
    assert outcome is Outcome.FUEL_EXHAUSTED
    assert simulate(parse("!"), {}, 0) == (Outcome.FUEL_EXHAUSTED, {})
    with pytest.raises(ValueError):
        simulate(parse("!"), {}, -5)


def test_simulate_past_end_inactive():
    outcome, _ = simulate(parse("f.i/i"), fam("{f=1}"), 10)
    assert outcome is Outcome.INACTIVE


def _probe(t, pos):
    """What ``simulate`` makes of position ``pos`` of ``t``, reached by a
    leading jump of ``pos`` with fuel for that one more instruction."""
    try:
        return simulate(Concat(Jump(pos), t), {}, 2)[0]
    except ValueError as error:  # an abstract action, named in the message
        return str(error)


def _probe_of(instr):
    """What ``_probe`` should find at a position holding ``instr``."""
    if instr is None or instr == Jump(0):
        return Outcome.INACTIVE
    if isinstance(instr, Halt):
        return Outcome.TERMINATED
    if isinstance(instr, Jump):
        return Outcome.FUEL_EXHAUSTED
    return f"cannot execute abstract action {instr.basic}"


def test_stream_matches_first_canonical_form_on_seeded_terms():
    """The lazy unfolder of the oracles reads the sequence the first
    canonical form spells out, and ``unfold`` and ``simulate`` read the
    same, on 400 seeded terms (seed 79) with nested repetitions, at
    positions 1 to 60 in random order."""
    rng = random.Random(79)
    for _ in range(400):
        t = random_term(rng, 8)
        canon = to_first_canonical(t)
        want = oracles.take((canon.prefix, canon.period), 60)
        assert list(itertools.islice(unfold(t), 60)) == want, t
        stream = oracles.Stream(t)
        positions = list(range(1, 61))
        rng.shuffle(positions)
        for pos in positions:
            instr = stream.at(pos)
            assert instr == (want[pos - 1] if pos <= len(want) else None), (t, pos)
            assert _probe(t, pos) == _probe_of(instr), (t, pos)


def test_simulate_long_jump_in_a_repetition_is_bounded():
    """The cost follows the fuel, not the jump literal."""
    start = time.perf_counter()
    code, out, err = run_command(["simulate", "--fuel", "5", "-e", "(#100000000;!)*", "-f", "{}"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "fuel-exhausted {}\n", "")
    outcome, family = simulate(parse("f.1/1;(#99999999;!)*"), fam("{f=0}"), 3)
    assert (outcome, family) == (Outcome.TERMINATED, fam("{f=1}"))  # an odd literal lands on !
    # the inner repetition never ends, so the period is found there
    start = time.perf_counter()
    outcome, _ = simulate(parse("(f.1/1;(#100000000;f.0/0)*)*"), fam("{f=0}"), 5)
    assert outcome is Outcome.FUEL_EXHAUSTED
    assert time.perf_counter() - start < 1.0


def test_simulate_slots_each_distinct_instruction_once(monkeypatch):
    """On a 20,000-position term of six distinct register actions and a
    termination, each shared by the parse, ``_slots`` is handed one action
    per distinct instruction object, not one per stored position, and the
    run ends as the oracle's does."""
    rng = random.Random(1)
    texts = ("f.i/c", "+g.c/i", "-f.1/0", "g.0/1", "+f.i/i", "-g.c/c")
    t = parse(";".join(rng.choice(texts) for _ in range(19999)) + ";!")
    handed = []
    slots = interaction._slots

    def counted(actions, family):
        actions = list(actions)
        handed.append(len(actions))
        return slots(actions, family)

    monkeypatch.setattr(interaction, "_slots", counted)
    assert simulate(t, fam("{f=0, g=1}"), 10) == oracles.simulate(t, fam("{f=0, g=1}"), 10)
    assert handed and max(handed) <= len(set(map(id, flatten(t)[0]))) == 7, handed


def test_deep_repetition_nesting_needs_no_recursion():
    """A 5,000-deep chain ``(#1;(#1;( ... (#1;f.c/c;!)* ... )*)*)*``, built
    by hand since the parser refuses nesting this deep, goes through every
    linearizing route; the last repetition met starts the period."""
    flip = RegisterAction(Focus("f"), UnaryBoolFunc.COMPLEMENT, UnaryBoolFunc.COMPLEMENT)
    t = Concat(Plain(flip), Halt())
    for _ in range(5000):
        t = Repeat(Concat(Jump(1), t))
    period = [Jump(1), Plain(flip), Halt()]
    canon = to_first_canonical(t)
    assert (list(canon.prefix), list(canon.period)) == ([Jump(1)] * 4999, period)
    assert list(itertools.islice(unfold(t), 5005)) == [Jump(1)] * 4999 + period * 2
    assert simulate(t, fam("{f=0}"), 6000) == (Outcome.TERMINATED, fam("{f=1}"))
    assert threads_equal(extract(t), prefix_action(flip, STOP))


# -- triangulation --------------------------------------------------------------


def test_oracle_triangulation():
    """simulate, apply-after-extract and termination via abstraction agree."""
    rng = random.Random(71)
    foci = [Focus("f"), Focus("g", 1), Focus("h")]
    for _ in range(150):
        prog, _ = random_register_program(rng, foci, rng.randint(1, 8))
        thread = extract(prog)
        for bits in itertools.product((False, True), repeat=3):
            family = {f: content_of_bit(b) for f, b in zip(foci, bits)}
            outcome, sim_family = simulate(prog, dict(family), 10_000)
            assert outcome is not Outcome.FUEL_EXHAUSTED
            algebraic = apply(thread, dict(family))
            concealed = abstract_tau(use(thread, dict(family)))
            if outcome is Outcome.TERMINATED:
                assert algebraic == sim_family
                assert concealed == STOP
            else:
                assert algebraic == {}
                assert concealed == DEAD


@functools.cache
def short_terms():
    """Every term over ``+f.i/c``, ``-f.c/i``, ``f.1/1``, ``f.0/0``, ``!``,
    ``#0``, ``#1`` and ``#2``: each sequence of length 1 to 3, taken finite
    and with every nonempty period split off (2,256 terms)."""
    alphabet = leaves(parse("+f.i/c;-f.c/i;f.1/1;f.0/0;!;#0;#1;#2"))
    terms = []
    for n in (1, 2, 3):
        for seq in itertools.product(alphabet, repeat=n):
            terms.append(concat_all(seq))
            terms += [concat_all(seq[:m] + (Repeat(concat_all(seq[m:])),)) for m in range(n)]
    assert len(terms) == 2256
    return terms


def test_simulate_agrees_with_apply_and_use_exhaustively():
    """``simulate`` against ``apply`` after ``extract`` and against
    ``abstract_tau`` after ``use``, on every term of ``short_terms`` and on
    ``{f=0}``, ``{f=1}``, ``{f=-}`` and ``{}`` (9,024 runs), and each
    ``abstract_tau`` against the walk it replaced (``tests/oracles.py``).
    A length-3 run has at most 6 (position, content) states, so fuel 64
    runs out only on divergence.  An inoperative register sticks as an
    absent one does, so ``{f=-}`` and ``{}`` end alike."""
    families = [fam("{f=0}"), fam("{f=1}"), fam("{f=-}"), {}]
    for t in short_terms():
        thread = extract(t)
        assert threads_equal(use(thread, {}), thread), t
        runs = [simulate(t, family, 64) for family in families]
        assert runs[2][0] is runs[3][0], t
        for family, (outcome, sim_family) in zip(families, runs):
            terminated = outcome is Outcome.TERMINATED
            assert apply(thread, family) == (sim_family if terminated else {}), (t, family)
            if family:
                used = use(thread, family)
                concealed = abstract_tau(used)
                assert concealed == (STOP if terminated else DEAD), (t, family)
                assert concealed == oracles.abstract_tau(used), (t, family)


def padded(family, count):
    """``family`` with ``count`` more registers, ``a:i`` and ``z:i`` in turn
    so that they sort on both sides of ``f``, holding 0, 1 and - in turn."""
    contents = (RegisterContent.ZERO, RegisterContent.ONE, RegisterContent.INOPERATIVE)
    pad = {Focus("az"[i % 2], i + 1): contents[i % 3] for i in range(count)}
    return {**pad, **family}


def test_use_and_apply_match_the_whole_family_route_exhaustively():
    """``use`` and ``apply``, which read only the registers a thread names,
    against the routes that key every step by the whole family
    (``tests/oracles.py``), on ``{f=0}``, ``{f=1}``, ``{f=-}`` and ``{}``
    padded by registers the terms never name: by 0 and 1 on every term of
    ``short_terms`` (18,048 pairs of calls each), and by 100 and 300 on its
    16 terms of length 1 (128 more), where the reference route costs about
    a millisecond a call.  On the 208 terms of length 1 and 2 each family
    is also run against ``use(thread, family)``, whose internal steps only
    this input exercises (1,664 more).  Equal threads render alike;
    ``apply`` must also keep the family's order."""
    families = [fam("{f=0}"), fam("{f=1}"), fam("{f=-}"), {}]
    small = [padded(family, count) for family in families for count in (0, 1)]
    large = [padded(family, count) for family in families for count in (100, 300)]
    checked = 0
    for i, t in enumerate(short_terms()):
        thread = extract(t)
        for j, family in enumerate(small + large if i < 16 else small):  # the terms of length 1 lead
            # the terms of length 1 and 2 are the first 208
            for used in (thread, use(thread, family)) if i < 208 and j < len(small) else (thread,):
                assert use(used, family) == oracles.use(used, family), (t, family, used)
                got, want = apply(used, family), oracles.apply(used, family)
                assert list(got.items()) == list(want.items()), (t, family, used)
                checked += 1
    assert checked == 18048 + 128 + 1664


def test_simulate_matches_the_step_by_step_run():
    """``simulate``, which stops stepping once a configuration comes back,
    against the step-by-step run it replaced (``tests/oracles.py``), on
    ``{f=0}``, ``{f=1}``, ``{f=-}`` and ``{}``: on the 208 terms of
    ``short_terms`` of length 1 and 2 at every fuel from 0 to 40, up to the
    fuel at which the run stops, and then at 40; on the other 2,048 at fuel
    24.  No configuration comes back on a run that stops, so larger fuels
    add nothing there.  A run of length at most 3 has at most 6
    configurations, so on every run that diverges the configuration
    marked at step 7 comes back by step 13, and fuel 24 runs past that.
    The family's order must be equal too."""
    families = [fam("{f=0}"), fam("{f=1}"), fam("{f=-}"), {}]
    for i, t in enumerate(short_terms()):
        for family in families:
            for fuel in [*range(41)] if i < 208 else [24]:  # the terms of length 1 and 2 lead
                (outcome, got), (want_outcome, want) = simulate(t, family, fuel), oracles.simulate(t, family, fuel)
                assert (outcome, list(got.items())) == (want_outcome, list(want.items())), (t, family, fuel)
                if outcome is not Outcome.FUEL_EXHAUSTED:
                    assert simulate(t, family, 40) == (outcome, got), (t, family)
                    break


def test_simulate_with_huge_fuel_reads_the_period():
    """Once a configuration comes back, the fuel left counts modulo the
    cycle: a fuel of 10**20 takes no longer than a small one, and ends where
    the step-by-step run ends with a fuel in the same residue class."""
    start = time.perf_counter()
    code, out, err = run_command(["simulate", "--fuel", "100000000000000000000", "-e", "(#1)*", "-f", "{}"])
    assert (code, out, err) == (0, "fuel-exhausted {}\n", "")
    # a cycle of six configurations, each with its own family, after two steps
    t = parse("e.0/0;#2;!;(f.c/c;g.c/c;h.c/c)*")
    family = fam("{e=1, h=0, g=0, f=0}")
    ends = set()
    for residue in range(6):
        fuel = 10**20 + residue
        outcome, got = simulate(t, family, fuel)
        assert (outcome, got) == oracles.simulate(t, family, 36 + fuel % 6), residue
        assert list(got) == list(family)
        ends.add(render_family(got))
    assert len(ends) == 6
    assert time.perf_counter() - start < 1.0


def test_simulate_builds_a_state_only_where_the_run_goes():
    """``simulate`` reads a position as a thread state only once the run
    reaches it: on a 20,000-position term of shared register instructions
    on ``f`` and ``g``, after a warm-up call that flattens the term, a run
    with fuel 10 peaks under 64 KiB of traced memory.  A state built for
    every position up front took 2.4 MiB."""
    shared = [
        kind(RegisterAction(focus, reply, effect))
        for kind in (Plain, PosTest, NegTest)
        for focus in (F, G)
        for reply in UnaryBoolFunc
        for effect in UnaryBoolFunc
    ]
    rng = random.Random(29)
    t = concat_all([rng.choice(shared) for _ in range(19999)] + [Halt()])
    family = fam("{f=0, g=1}")
    want = simulate(t, family, 10)
    assert want[0] is Outcome.FUEL_EXHAUSTED
    tracemalloc.start()
    try:
        assert simulate(t, family, 10) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_use_costs_what_the_named_registers_cost():
    """``use`` on a 122-state thread naming 7 registers takes less than
    twice as long with 1,000 registers it never names added to the family
    as with none (best of 5 runs each).  Keyed by the whole family, it took
    about 70 times as long.  The thread repeats a seeded 160-instruction
    program over ``r:1`` to ``r:7`` without terminations."""
    foci = [Focus("r", i) for i in range(1, 8)]
    program, _ = random_register_program(random.Random(32), foci, 160, halt_weight=0.0)
    thread = extract(Repeat(program))
    assert len(thread.nodes) == 122
    family = {focus: content_of_bit(i % 2 == 0) for i, focus in enumerate(foci)}
    padded_family = padded(family, 1000)
    assert use(thread, padded_family) == use(thread, family)

    def best(family):
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            use(thread, family)
            runs.append(time.perf_counter() - start)
        return min(runs)

    assert best(padded_family) < 2 * best(family)


def test_use_then_apply_is_finite_for_bound_programs():
    rng = random.Random(73)
    foci = [Focus("f"), Focus("g")]
    for _ in range(60):
        prog, _ = random_register_program(rng, foci, rng.randint(1, 6))
        family = {Focus("f"): RegisterContent.ZERO, Focus("g"): RegisterContent.ONE}
        used = use(extract(prog), family)
        # every bound-register action is consumed into an internal step
        for node in used.nodes:
            if isinstance(node, Branch) and node.action is not TAU:
                assert node.action.focus not in family
        # repetition-free programs leave an acyclic used thread
        seen = set()

        def acyclic(state, path):
            node = used.node(state)
            assert state not in path
            if isinstance(node, Branch) and state not in seen:
                seen.add(state)
                acyclic(node.on_true, path | {state})
                acyclic(node.on_false, path | {state})

        acyclic(used.root, frozenset())
