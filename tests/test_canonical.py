import random

from hypothesis import given, settings, strategies as st

from iseq.canonical import (
    CanonicalSeq,
    instruction_sequence_congruent,
    structurally_congruent,
    term_of_canonical,
    to_first_canonical,
    to_second_canonical,
)
from iseq.syntax import parse_instruction_sequence as parse, render_term

from . import oracles
from .genterms import equal_variant, random_term


def instrs(text):
    canon = to_first_canonical(parse(text))
    return canon


def as_texts(canon: CanonicalSeq):
    return [str(i) for i in canon.prefix], [str(i) for i in canon.period]


# -- first canonical form -----------------------------------------------------


def test_first_canonical_absorbs_after_repetition():
    assert as_texts(instrs("(a;b)*;c")) == (["a"], ["b", "a"])


def test_first_canonical_collapses_nested_repetition():
    assert as_texts(instrs("+a;(b;(-c;#2;!)*)*")) == (["+a", "b"], ["-c", "#2", "!"])


def test_first_canonical_of_finite_term_is_leaf_list():
    assert as_texts(instrs("a;!")) == (["a", "!"], [])


def test_unfolding_equation():
    assert instruction_sequence_congruent(parse("a*"), parse("a;a*"))


def test_isc_golden_pair():
    assert instruction_sequence_congruent(parse("(a;b)*;c"), parse("a;(b;a)*"))


def test_isc_distinguishes_finite_lengths():
    assert not instruction_sequence_congruent(parse("a;!"), parse("a;!;!"))


# -- second canonical form ----------------------------------------------------


def test_second_canonical_self_loop_jumps_become_zero():
    canon = to_second_canonical(parse("-a;#2;(+b;#2)*"))
    assert canon == to_second_canonical(parse("-a;#0;(+b;#0)*"))
    flat = oracles.take((canon.prefix, canon.period), 6)
    assert [str(i) for i in flat] == ["-a", "#0", "+b", "#0", "+b", "#0"]


def test_second_canonical_shortens_long_jumps():
    assert structurally_congruent(parse("+a;#6;b;(-c;#9)*"), parse("+a;#2;b;(-c;#1)*"))
    assert not instruction_sequence_congruent(
        parse("+a;#6;b;(-c;#9)*"), parse("+a;#2;b;(-c;#1)*")
    )


def test_second_canonical_collapses_chained_jumps_in_finite_sequence():
    canon = to_second_canonical(parse("#3;a;#2;b;#1;!"))
    assert as_texts(canon) == (["#3", "a", "#3", "b", "#1", "!"], [])


def test_structural_congruence_negative_on_test_polarity():
    assert not structurally_congruent(parse("+a;!;!"), parse("-a;!;!"))


def test_structural_congruence_reflexive():
    t = parse("+a;#6;b;(-c;#9)*")
    assert structurally_congruent(t, t)


def test_infinite_jump_chain_collapses():
    canon = to_second_canonical(parse("(#1)*"))
    assert as_texts(canon) == (["#0"], ["#0"])


def test_past_end_jumps_untouched_in_finite_sequences():
    # no repeating part: the long jump may not shorten
    assert not structurally_congruent(parse("a;#5;!"), parse("a;#2;!"))
    assert as_texts(to_second_canonical(parse("a;#5;!"))) == (["a", "#5", "!"], [])


def test_repetition_of_repetition_collapses():
    assert instruction_sequence_congruent(parse("(a*)*"), parse("a*"))
    assert instruction_sequence_congruent(parse("((a;b)*)*"), parse("(a;b)*"))


def test_second_canonical_jump_conditions():
    """Shortest-jump bounds and chain-freeness on random normalized terms."""
    from iseq.syntax import Jump

    rng = random.Random(29)
    for _ in range(150):
        canon = to_second_canonical(random_term(rng, 10))
        m, k = len(canon.prefix), len(canon.period)
        if k:
            for instr in canon.period:
                if isinstance(instr, Jump):
                    assert instr.offset <= k - 1
            for i, instr in enumerate(canon.prefix, start=1):
                if isinstance(instr, Jump):
                    assert instr.offset <= k + m - i
        seq = (canon.prefix, canon.period)
        for pos in range(1, canon.positions() + 1):
            instr = oracles.at(seq, pos)
            if isinstance(instr, Jump) and instr.offset:
                assert not isinstance(oracles.at(seq, pos + instr.offset), Jump)


# -- properties ----------------------------------------------------------------


def test_normalization_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(150):
        t = random_term(rng, 10)
        first = to_first_canonical(t)
        assert to_first_canonical(term_of_canonical(first)) == first
        second = to_second_canonical(t)
        assert to_second_canonical(term_of_canonical(second)) == second


def test_repetition_free_prefix_is_leaf_list():
    from iseq.syntax import leaves

    rng = random.Random(19)
    checked = 0
    while checked < 50:
        t = random_term(rng, 8)
        try:
            flat = leaves(t)  # raises on a repetition
        except ValueError:
            continue
        checked += 1
        canon = to_first_canonical(t)
        assert canon.period == ()
        assert list(canon.prefix) == flat
        stream = oracles.Stream(t)  # shares no code with ``flatten``
        assert [stream.at(pos) for pos in range(1, len(flat) + 2)] == flat + [None]


def test_isc_implies_structural_on_variants():
    rng = random.Random(11)
    hits = 0
    for _ in range(120):
        t = random_term(rng, 8)
        t2 = equal_variant(rng, t)
        assert instruction_sequence_congruent(t, t2)
        assert structurally_congruent(t, t2)
        hits += 1
    assert hits == 120


def test_isc_implies_structural_on_random_pairs():
    rng = random.Random(13)
    for _ in range(200):
        t, t2 = random_term(rng, 12), random_term(rng, 12)
        if instruction_sequence_congruent(t, t2):
            assert structurally_congruent(t, t2)


def test_expansion_matches_independent_unfolder():
    """The first canonical form spells out the stream the lazy unfolder of
    the oracles reads, which shares no code with ``flatten``."""
    rng = random.Random(17)
    for _ in range(100):
        t = random_term(rng, 9)
        canon = to_first_canonical(t)
        stream = oracles.Stream(t)
        direct = []
        for pos in range(1, 51):
            instr = stream.at(pos)
            if instr is None:
                break
            direct.append(instr)
        assert oracles.take((canon.prefix, canon.period), 50) == direct


def test_render_of_canonical_is_parseable():
    canon = to_second_canonical(parse("-a;#2;(+b;#2)*"))
    text = render_term(term_of_canonical(canon))
    assert to_second_canonical(parse(text)) == canon


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_random_seeded_canonical_idempotence(seed):
    rng = random.Random(seed)
    t = random_term(rng, 8)
    canon = to_second_canonical(t)
    assert to_second_canonical(term_of_canonical(canon)) == canon
