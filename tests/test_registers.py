import functools
import itertools
import random

from iseq.registers import evaluate_family, render_family
from iseq.syntax import (
    ComposeFamily,
    EmptyFamily,
    Focus,
    HideFamily,
    RegisterContent,
    SingletonFamily,
    parse_register_family as parse,
)

from .oracles import compose

ZERO = RegisterContent.ZERO
ONE = RegisterContent.ONE
DIV = RegisterContent.INOPERATIVE


def test_clash_collapses_to_inoperative():
    assert evaluate_family(parse("{f=0} + {f=1}")) == {Focus("f"): DIV}
    assert evaluate_family(parse("{f=1} + {f=1}")) == {Focus("f"): DIV}


def test_hide_removes_named_registers():
    assert evaluate_family(parse("hide{f}({f=1, g=0})")) == {Focus("g"): ZERO}
    assert evaluate_family(parse("hide{f}({})")) == {}


def test_empty_is_identity():
    assert evaluate_family(parse("{} + {aux:1=0}")) == {Focus("aux", 1): ZERO}
    assert evaluate_family(parse("{aux:1=0} + {}")) == {Focus("aux", 1): ZERO}


def test_hide_distributes_over_composition():
    t = parse("hide{f}({f=1} + {g=0} + {f=0})")
    assert evaluate_family(t) == {Focus("g"): ZERO}


def test_clash_is_absorbing():
    assert evaluate_family(parse("{f=1} + {f=1} + {f=1}")) == {Focus("f"): DIV}
    assert evaluate_family(parse("{f=-} + {f=0}")) == {Focus("f"): DIV}


def _random_family_term(rng, depth):
    foci = [Focus("f"), Focus("g"), Focus("aux", 1)]
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return EmptyFamily()
        return SingletonFamily(rng.choice(foci), rng.choice([ZERO, ONE, DIV]))
    if rng.random() < 0.2:
        return HideFamily(
            frozenset(rng.sample(foci, rng.randint(1, 2))),
            _random_family_term(rng, depth - 1),
        )
    return ComposeFamily(
        _random_family_term(rng, depth - 1), _random_family_term(rng, depth - 1)
    )


def _compose_leaves(t):
    """Multiset of evaluated leaves of a composition tree (hide kept nested)."""
    if isinstance(t, ComposeFamily):
        return _compose_leaves(t.left) + _compose_leaves(t.right)
    return [t]


def test_composition_commutative_associative():
    rng = random.Random(61)
    for _ in range(150):
        t = _random_family_term(rng, 3)
        reference = evaluate_family(t)
        leaves = _compose_leaves(t)
        rng.shuffle(leaves)
        shuffled = leaves[0]
        for leaf in leaves[1:]:
            # alternate association sides for variety
            if rng.random() < 0.5:
                shuffled = ComposeFamily(shuffled, leaf)
            else:
                shuffled = ComposeFamily(leaf, shuffled)
        if not isinstance(t, ComposeFamily):
            continue
        assert evaluate_family(shuffled) == reference


def test_representation_decomposition():
    rng = random.Random(67)
    for _ in range(100):
        family = evaluate_family(_random_family_term(rng, 3))
        for focus in (Focus("f"), Focus("g"), Focus("aux", 1)):
            if focus not in family:
                continue
            rest = {f: c for f, c in family.items() if f != focus}
            assert compose({focus: family[focus]}, rest) == family


F, G = Focus("f"), Focus("g")
# every evaluated family over foci f and g, each absent, 0, 1 or -
FAMILIES = [
    {focus: content for focus, content in zip((F, G), contents) if content is not None}
    for contents in itertools.product((None, ZERO, ONE, DIV), repeat=2)
]
HIDINGS = [frozenset({F}), frozenset({G}), frozenset({F, G})]


def _term(family):
    """A family term that evaluates to ``family``."""
    return functools.reduce(ComposeFamily, [SingletonFamily(*kv) for kv in family.items()] or [EmptyFamily()])


def _hide(hidden, family):
    return evaluate_family(HideFamily(hidden, _term(family)))


def test_family_laws_exhaustively():
    """On all 16 families over foci f and g, each absent, 0, 1 or -, and the
    3 nonempty sets of those foci to hide: composition, both as ``compose``
    and as an evaluated term, is associative (4,096 triples) and commutative
    (256 pairs) with unit ``{}``, and a focus both operands name collapses
    to ``-``; ``hide`` removes exactly what it names (48 cases), distributes
    over composition (768) and merges nested hides (144)."""
    for a in FAMILIES:
        ta = _term(a)
        assert evaluate_family(ta) == a
        assert compose(a, {}) == a == compose({}, a)
        assert evaluate_family(ComposeFamily(ta, EmptyFamily())) == a == evaluate_family(ComposeFamily(EmptyFamily(), ta))
        for hidden in HIDINGS:
            assert _hide(hidden, a) == {f: c for f, c in a.items() if f not in hidden}
            for inner in HIDINGS:
                assert evaluate_family(HideFamily(hidden, HideFamily(inner, ta))) == _hide(hidden | inner, a)
        for b in FAMILIES:
            tb = _term(b)
            ab = compose(a, b)
            assert ab == compose(b, a) == evaluate_family(ComposeFamily(ta, tb))
            for focus in (F, G):
                assert ab.get(focus) == (DIV if focus in a and focus in b else a.get(focus, b.get(focus)))
            for hidden in HIDINGS:
                assert evaluate_family(HideFamily(hidden, ComposeFamily(ta, tb))) == compose(_hide(hidden, a), _hide(hidden, b))
            for c in FAMILIES:
                tc = _term(c)
                assert compose(ab, c) == compose(a, compose(b, c))
                assert evaluate_family(ComposeFamily(ComposeFamily(ta, tb), tc)) == evaluate_family(ComposeFamily(ta, ComposeFamily(tb, tc)))


def test_render_sorted_deterministic():
    family = evaluate_family(parse("{g=1, f=0, aux:2=-, aux:1=1}"))
    assert render_family(family) == "{aux:1=1, aux:2=-, f=0, g=1}"
    assert render_family({}) == "{}"
