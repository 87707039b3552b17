import itertools
import random

from iseq.extraction import (
    behaviourally_congruent,
    behaviourally_equivalent,
    extract,
    synthesize_repetition,
)
from iseq.canonical import instruction_sequence_congruent, structurally_congruent
from iseq.syntax import AbstractAction, Concat, Halt, Jump, Repeat, concat_all, leaves, render_term
from iseq.syntax import parse_instruction_sequence as parse
from iseq.threads import (
    DEAD,
    STOP,
    Branch,
    Dead,
    RegularThread,
    Stop,
    minimize,
    threads_equal,
)

from .genterms import equal_variant, random_term

A = AbstractAction("a")
B = AbstractAction("b")


def test_extract_branching_example():
    # (b.S) <a> D, four states when minimized
    expected = RegularThread((Branch(A, 1, 3), Branch(B, 2, 2), Stop(), Dead()), 0)
    got = extract(parse("+a;#2;#3;b;!"))
    assert threads_equal(got, expected)
    assert len(got.nodes) == 4


def test_extract_loop_example():
    # x = (b.S) <a> x
    expected = RegularThread((Branch(A, 1, 0), Branch(B, 2, 2), Stop()), 0)
    got = extract(parse("(+a;#2;#3;b;!)*"))
    assert minimize(expected) == got


def test_extract_infinite_jump_chain_is_dead():
    assert extract(parse("(#1)*")) == minimize(DEAD)


def test_extract_trailing_test_falls_dead():
    got = extract(parse("+a"))
    assert threads_equal(got, RegularThread((Branch(A, 1, 1), Dead()), 0))


def test_extraction_invariant_under_normalization():
    from iseq.canonical import term_of_canonical, to_second_canonical

    rng = random.Random(31)
    for _ in range(100):
        t = random_term(rng, 10)
        assert threads_equal(extract(t), extract(term_of_canonical(to_second_canonical(t))))


# -- behavioural equivalence ---------------------------------------------------


def test_behavioural_equivalence_examples():
    assert behaviourally_equivalent(parse("a;#2;+b;!"), parse("a;#2;+c;!"))
    assert behaviourally_equivalent(parse("(+a;#2;#3;b;!)*"), parse("(-a;#3;b;!)*"))
    assert not behaviourally_equivalent(parse("a;!"), parse("b;!"))


def test_behavioural_congruence_examples():
    assert behaviourally_congruent(parse("+a;!;!"), parse("-a;!;!"))
    assert behaviourally_congruent(parse("(+a;#3;#2;b)*"), parse("(-a;#3;#2;b)*"))
    assert not behaviourally_congruent(parse("a;#2;+b;!"), parse("a;#2;+c;!"))
    assert not behaviourally_congruent(parse("(+a;#2;#3;b;!)*"), parse("(-a;#3;b;!)*"))


def test_behavioural_congruence_is_finer_than_equivalence():
    rng = random.Random(37)
    for _ in range(120):
        t1, t2 = random_term(rng, 8), random_term(rng, 8)
        if behaviourally_congruent(t1, t2):
            assert behaviourally_equivalent(t1, t2)


def test_congruence_respects_concatenation_contexts():
    rng = random.Random(41)
    checked = 0
    for _ in range(250):
        t1, t2 = random_term(rng, 6), random_term(rng, 6)
        if not behaviourally_congruent(t1, t2):
            continue
        checked += 1
        r = random_term(rng, 4)
        assert behaviourally_congruent(Concat(t1, r), Concat(t2, r))
        assert behaviourally_congruent(Concat(r, t1), Concat(r, t2))
    assert checked >= 3  # reflexive-ish hits occur


def test_congruence_agrees_with_definition_oversampled():
    """Direct check of the defining condition on small random terms."""
    rng = random.Random(43)

    def padded(t, entry, halts):
        padded_term = t
        for _ in range(halts):
            padded_term = Concat(padded_term, Halt())
        return Concat(Jump(entry), padded_term)

    for _ in range(40):
        t1, t2 = random_term(rng, 5), random_term(rng, 5)
        verdict = behaviourally_congruent(t1, t2)
        direct = all(
            behaviourally_equivalent(padded(t1, entry, halts), padded(t2, entry, halts))
            for entry in range(0, 12)
            for halts in range(0, 6)
        )
        if verdict:
            assert direct
        else:
            assert not direct


def test_soundness_chain_on_variants():
    rng = random.Random(47)
    for _ in range(80):
        t = random_term(rng, 10)
        t2 = equal_variant(rng, t)
        assert instruction_sequence_congruent(t, t2)
        assert structurally_congruent(t, t2)
        assert behaviourally_congruent(t, t2)
        assert behaviourally_equivalent(t, t2)


def test_structural_implies_behavioural_congruence_random():
    rng = random.Random(53)
    for _ in range(150):
        t1, t2 = random_term(rng, 9), random_term(rng, 9)
        if structurally_congruent(t1, t2):
            assert behaviourally_congruent(t1, t2)


# -- synthesis ------------------------------------------------------------------


def test_synthesize_stop():
    s = synthesize_repetition(parse("!"))
    assert threads_equal(extract(Repeat(s)), STOP)


def test_synthesize_dead():
    s = synthesize_repetition(parse("#0"))
    assert threads_equal(extract(Repeat(s)), DEAD)


def test_synthesize_loop():
    t = parse("(+a;#2;#3;b;!)*")
    s = synthesize_repetition(t)
    assert behaviourally_equivalent(t, Repeat(s))


def test_synthesize_lays_out_one_block_per_state():
    """One 3-slot block per state of the minimized thread, in state order: a
    branch tests its action and jumps to its successors' blocks, Stop is
    ``!;#0;#0`` and Dead ``#0;#0;#0``.  Each program has a jump to an
    earlier block, which wraps around the whole program."""
    for text, synthesized in [
        ("(+a;#2;#3;b;!)*", "+a;#2;#7;+b;#2;#1;!;#0;#0"),
        ("a;(+b;#2;a)*", "+a;#2;#1;+b;#5;#1"),
        ("(a;+b;#0;!)*", "+a;#2;#1;+b;#2;#4;#0;#0;#0;!;#0;#0"),
        ("-a;#2;(+b;#2)*", "+a;#2;#4;+b;#2;#7;#0;#0;#0"),
    ]:
        assert render_term(synthesize_repetition(parse(text))) == synthesized, text


def test_synthesize_random_terms():
    rng = random.Random(59)
    for _ in range(60):
        t = random_term(rng, 8)
        s = synthesize_repetition(t)
        assert behaviourally_equivalent(t, Repeat(s))


def test_synthesize_round_trips_on_every_short_term():
    """``t`` is behaviourally equivalent to ``synthesize_repetition(t)*`` for
    every term of length 1 to 3 over ``a``, ``+a``, ``-b``, ``!`` and ``#0``
    to ``#3``, taken finite and with every nonempty period split off (2,256
    terms)."""
    alphabet = leaves(parse("a;+a;-b;!;#0;#1;#2;#3"))
    count = 0
    for n in (1, 2, 3):
        for seq in itertools.product(alphabet, repeat=n):
            for m in range(n + 1):
                t = concat_all(seq) if m == n else concat_all(seq[:m] + (Repeat(concat_all(seq[m:])),))
                assert behaviourally_equivalent(t, Repeat(synthesize_repetition(t))), t
                count += 1
    assert count == 2256
