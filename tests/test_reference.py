"""The term layers against the reference algorithms they replaced.

``tests/oracles.py`` keeps the from-scratch chain walker, the per-position
extraction and the round-by-round refinement; here the library must agree
with them exactly, exhaustively on short sequences and on seeded random
graphs.  Large inputs that were quadratic under the reference algorithms
are checked against results known by construction.  The union-find
kernel of the behavioural deciders is checked against the same reference
refinement, and the number of positions behavioural congruence compares is
pinned by verdicts that one position fewer would get wrong.
"""

import itertools
import random

import pytest

from iseq import threads
from iseq.canonical import CanonicalSeq, to_second_canonical
from iseq.extraction import _write, behaviourally_congruent, extract
from iseq.interaction import abstract_tau
from iseq.syntax import AbstractAction, Halt, Jump, Plain, PosTest, Repeat, concat_all, flatten
from iseq.syntax import parse_instruction_sequence as parse
from iseq.threads import (
    STOP,
    TAU,
    Branch,
    Dead,
    RegularThread,
    Stop,
    minimize,
)

from . import oracles

A = AbstractAction("a")
B = AbstractAction("b")
ALPHABET = (Plain(A), PosTest(A), Halt(), Jump(0), Jump(1), Jump(2), Jump(3))


def every_split(max_len):
    """Every (prefix, period) cut of every sequence up to ``max_len``."""
    for length in range(1, max_len + 1):
        for seq in itertools.product(ALPHABET, repeat=length):
            for cut in range(1, length + 1):
                yield seq[:cut], seq[cut:]


def term(prefix, period):
    items = list(prefix)
    if period:
        items.append(Repeat(concat_all(period)))
    return concat_all(items)


# -- canonical forms and extraction, exhaustively -----------------------------


@pytest.fixture(scope="module")
def reference_splits():
    """Every split of ``every_split(5)`` (94,773) with the reference's
    second canonical form of it, computed once for the two tests below."""
    return [(prefix, period, oracles.second_canonical(prefix, period)) for prefix, period in every_split(5)]


def test_second_canonical_matches_reference_on_every_split(reference_splits):
    assert len(reference_splits) == 94773
    for prefix, period, want in reference_splits:
        got = to_second_canonical(term(prefix, period))
        assert (got.prefix, got.period) == want, (prefix, period)


def test_position_nodes_match_reference_on_every_split(reference_splits):
    """``extraction._write``'s arrays against the reference's, laid out
    alike, on the 31,823 distinct second canonical forms of every split up
    to length 5, the reference's own (``oracles.second_canonical``).  The
    reference runs past a finite end into the Dead state 0, where
    ``_write`` lays a leaf ``("end", j)`` per target: these leaves come
    after the acting states, each a self-loop under its own ``end j``, and
    with each read as state 0 every array must match."""
    # _write takes second canonical forms only, which have no chained
    # jumps; chained and cyclic jumps are covered by the second canonical
    # form's test above and by the exhaustive decider tests
    seen = set()
    for _, _, seq in reference_splits:
        # ALPHABET's objects are shared; the reference makes new jumps
        key = tuple(tuple(i.offset if type(i) is Jump else id(i) for i in part) for part in seq)
        if key in seen:
            continue
        seen.add(key)
        kinds, label, on_true, on_false, entry = _write(*seq)
        want = oracles.position_arrays(seq)
        if not seq[1]:  # a finite sequence
            acting = len(want[1])
            ends = [kinds[x] for x in label[acting:]]
            assert ends == [("end", j) for _, j in ends] and len(set(ends)) == len(ends), seq
            assert on_true[acting:] == on_false[acting:] == list(range(acting, len(label))), seq
            dead = [*range(acting), *[0] * len(ends)].__getitem__  # each end j leaf read as Dead
            kinds, label = kinds[: len(kinds) - len(ends)], label[:acting]
            on_true, on_false = list(map(dead, on_true[:acting])), list(map(dead, on_false[:acting]))
            entry = list(map(dead, entry))
        assert (kinds, label, on_true, on_false, entry) == want, seq
    assert len(seen) == 31823


# -- bisimulation, on seeded random graphs ------------------------------------


def random_nodes(rng, size):
    """States with Stop/Dead, tau, self-loops and runs of forward steps; the
    runs split into many blocks one after another, as on a chain."""
    nodes = []
    for state in range(size):
        roll = rng.random()
        if roll < 0.08:
            nodes.append(Stop())
        elif roll < 0.16:
            nodes.append(Dead())
        else:
            action = rng.choice((A, A, B, TAU))
            shape = rng.random()
            if shape < 0.45:
                on_true = on_false = min(state + 1, size - 1)
            elif shape < 0.55:
                on_true = on_false = state
            else:
                on_true, on_false = rng.randrange(size), rng.randrange(size)
            nodes.append(Branch(action, on_true, on_false))
    return nodes


def test_bisimulation_classes_match_reference_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(2000):
        nodes = random_nodes(rng, rng.randint(1, 60))
        assert oracles.hopcroft_classes(nodes) == oracles.bisimulation_classes(nodes), nodes
    assert oracles.hopcroft_classes([]) == []


def test_minimize_matches_reference_on_random_threads():
    rng = random.Random(7)
    for _ in range(1000):
        nodes = random_nodes(rng, rng.randint(1, 60))
        thread = RegularThread(tuple(nodes), rng.randrange(len(nodes)))
        assert minimize(thread) == oracles.minimize(thread), thread


def test_abstract_tau_matches_reference_on_random_threads():
    """``abstract_tau``, which sends every edge to the end of its tau chain
    in one memoized pass, against the per-state walk it replaced, on 1,000
    random threads of 1 to 60 states with tau runs, tau self-loops, Stop and
    Dead (seed 17), each from a random root."""
    rng = random.Random(17)
    for _ in range(1000):
        nodes = random_nodes(rng, rng.randint(1, 60))
        thread = RegularThread(tuple(nodes), rng.randrange(len(nodes)))
        assert abstract_tau(thread) == oracles.abstract_tau(thread), thread


def test_bisimilar_matches_reference_on_every_pair_of_random_graphs():
    """``threads._bisimilar`` on every ordered pair of states of 300 random
    graphs of 1 to 30 states (seed 11), 98,847 pairs, against the
    reference refinement; and on one batch of pairs per graph, up to four
    bisimilar ones and, in about half of the graphs, one drawn at random,
    against the conjunction of their verdicts.  Two states of one graph
    are asked about by passing the graph twice."""
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        nodes = random_nodes(rng, rng.randint(1, 30))
        classes = oracles.bisimulation_classes(nodes)
        graph = threads._arrays(nodes)
        states = range(len(nodes))
        for s, t in itertools.product(states, repeat=2):
            assert threads._bisimilar(graph, graph, [(s, t)]) is (classes[s] == classes[t]), (nodes, s, t)
            checked += 1
        same = [(s, t) for s, t in itertools.product(states, repeat=2) if classes[s] == classes[t]]
        batch = rng.sample(same, min(4, len(same)))
        if rng.random() < 0.5:
            batch.append((rng.choice(states), rng.choice(states)))
        want = all(classes[s] == classes[t] for s, t in batch)
        assert threads._bisimilar(graph, graph, batch) is want, (nodes, batch)
    assert checked == 98847


def test_bisimilar_matches_reference_across_two_random_graphs():
    """``threads._bisimilar`` on every pair of a state of one random graph
    and a state of another, 200 pairs of graphs of 1 to 20 states
    (seed 12), 22,503 pairs, against ``oracles.threads_equal``.  Each
    graph numbers its own labels, so the kernel must match them by what
    they stand for, and a kind of the second that the first lacks must
    match nothing.  Both come from ``RegularThread``,
    which gives a tau branch one successor, as the oracle expects."""
    rng = random.Random(12)
    checked = 0
    for _ in range(200):
        nodes = RegularThread(tuple(random_nodes(rng, rng.randint(1, 20)))).nodes
        nodes2 = RegularThread(tuple(random_nodes(rng, rng.randint(1, 20)))).nodes
        graph, graph2 = threads._arrays(nodes), threads._arrays(nodes2)
        for s, t in itertools.product(range(len(nodes)), range(len(nodes2))):
            want = oracles.threads_equal(RegularThread(nodes, s), RegularThread(nodes2, t))
            assert threads._bisimilar(graph, graph2, [(s, t)]) is want, (nodes, nodes2, s, t)
            checked += 1
    assert checked == 22503


def test_congruence_compares_enough_positions_of_periodic_terms():
    """Past the longer prefix, periods k_a and k_b need k_a + k_b -
    gcd(k_a, k_b) positions compared (Fine and Wilf).  One position fewer
    accepts the first pair; max(m) + max(k) positions accept the second.
    The next three pair periods k and n * k and shift a prefix; the last
    reads the period of ``a;(b;!)*`` past its stored positions, from
    position 1 onwards."""
    for x, y, want in (
        ("(!;#0)*", "(!;#0;!;!)*", False),
        ("(!;!;#0)*", "(!;!;#0;!;!;#0;!;!)*", False),
        ("(!;#0)*", "(!;#0;!;#0)*", True),
        ("(a)*", "(a;a;a)*", True),
        ("a;(b)*", "a;b;(b;b)*", True),
        ("a;(b;!)*", "a;b;!;(b;!)*", True),
    ):
        t, t2 = parse(x), parse(y)
        assert behaviourally_congruent(t, t2) is want, (x, y)
        assert behaviourally_congruent(t2, t) is want, (y, x)
        reference = [tuple(part) for part in flatten(t)], [tuple(part) for part in flatten(t2)]
        assert oracles.behaviourally_congruent(*reference) is want, (x, y)


# -- large regression inputs (not timed) --------------------------------------


def test_linear_chain_of_3000_states():
    chain = [Branch(A, i + 1, i + 1) for i in range(3000)] + [Stop()]
    assert oracles.hopcroft_classes(chain) == list(range(3001))
    assert minimize(RegularThread(tuple(chain))).nodes == tuple(chain)
    cycle = [Branch(A, (i + 1) % 3000, (i + 1) % 3000) for i in range(3000)]
    assert oracles.hopcroft_classes(cycle) == [0] * 3000
    assert minimize(RegularThread(tuple(cycle))).nodes == (Branch(A, 0, 0),)


def test_jump_chain_of_3000():
    finite = to_second_canonical(concat_all([Jump(1)] * 2999 + [Halt()]))
    assert finite == CanonicalSeq(tuple(Jump(3000 - p) for p in range(1, 3000)) + (Halt(),), ())
    assert extract(concat_all([Jump(1)] * 2999 + [Halt()])) == STOP
    endless = to_second_canonical(Repeat(concat_all([Jump(1)] * 3000)))
    assert endless == CanonicalSeq((Jump(0),), (Jump(0),))
