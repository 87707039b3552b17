import functools
import itertools
import random
import re
import sys

import pytest

from iseq import registers
from iseq.registers import _read, evaluate_family, render_family
from iseq.syntax import (
    MAX_NESTING,
    ComposeFamily,
    EmptyFamily,
    Focus,
    HideFamily,
    ParseError,
    RegisterContent,
    SingletonFamily,
    parse_register_family as parse,
    render_family_term,
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
    family = evaluate_family(parse("{g=1, aux:10=0, f=0, aux:2=-, aux:1=1}"))
    assert render_family(family) == "{aux:1=1, aux:2=-, aux:10=0, f=0, g=1}"
    assert render_family({}) == "{}"


# -- the one-pass reader the CLI uses ------------------------------------------


def _outcome(read, text):
    """The items of ``read(text)`` in key order, or the error it raises."""
    try:
        return "read", list(read(text).items())
    except ParseError as err:
        return "refused", err.message, err.position


def _by_parser(text):
    return evaluate_family(parse(text))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("{f=0, f=1}", {F: DIV}),
        ("{f=1, f=1, g=0}", {F: DIV, G: ZERO}),
        ("hide{f}({f=0} + {f=1}) + {f=1}", {F: ONE}),
        ("hide{f}({f=0, g=1}) + {g=1}", {G: DIV}),
        ("{} + {f=1} + {}", {F: ONE}),
        ("{} + ({}) + hide{f}({})", {}),
        ("(({g=-}) + {f=0})", {G: DIV, F: ZERO}),
        ("hide{f, g}(hide{g}({g=1}) + {g=0, f=1, aux:2=1})", {Focus("aux", 2): ONE}),
        ("{aux:1=0, aux:01=1}", {Focus("aux", 1): DIV}),
        ("{aux:1=0} + hide{aux:1}({aux:1=1}) + {g=1, aux:1=1}", {Focus("aux", 1): DIV, G: ONE}),
        ("hide{g}({g=1}) + {g=0}", {G: ZERO}),
    ],
)
def test_read_named_cases(text, expected):
    """Clashes within a block and across operands, a hidden focus dropped
    before a later clash could see it, ``{}`` operands and parentheses;
    keys come in the order ``evaluate_family`` gives."""
    assert _read(text) == expected
    assert _outcome(_read, text) == _outcome(_by_parser, text)


@pytest.mark.parametrize(
    "text",
    [
        "{f:0=1}",
        "hide{f:0}({})",
        "{f:" + "1" * 5000 + "=1}",
        "hide{f:" + "9" * 5000 + "}({})",
        "(" * MAX_NESTING + "{f=1}" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "{f=1}" + ")" * (MAX_NESTING + 1),
        "hide{f}(" * MAX_NESTING + "{f=1, g=0}" + ")" * MAX_NESTING,
        "hide{f}(" * (MAX_NESTING + 1) + "{g=0}" + ")" * (MAX_NESTING + 1),
        "hide{g}(" * 50 + "(" * (MAX_NESTING - 50) + "{f=1}" + ")" * MAX_NESTING,
        "hide{g}(" * 50 + "(" * (MAX_NESTING - 49) + "{f=1}" + ")" * (MAX_NESTING + 1),
        "({f=1}))",
        "{f=1} + hide",
        "{f=1, g=f}",
        "hide{f,}({})",
    ],
)
def test_read_edges_agree_with_parser(text):
    """Index 0, an index past ``int``'s digit limit, nesting at
    ``MAX_NESTING`` and one level past it, and texts cut short: the reader
    gives the parser's map, or its message and position."""
    assert _outcome(_read, text) == _outcome(_by_parser, text)


def test_read_long_families_without_recursion_or_the_parser(monkeypatch):
    """A 3,000-operand composition and a 3,000-binding block, with clashes,
    read in a loop: no fallback to the parser, and no call deeper than a
    few frames."""
    composition = " + ".join(f"{{r{i % 2500}={i % 2}}}" for i in range(3000))
    block = "{" + ", ".join(f"aux:{i % 2600 + 1}=-" for i in range(3000)) + "}"
    expected = [list(_by_parser(text).items()) for text in (composition, block)]

    def refuse(text):
        raise AssertionError("the reader fell back to the parser")

    monkeypatch.setattr(registers, "parse_register_family", refuse)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        got = [list(_read(text).items()) for text in (composition, block)]
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_read_agrees_with_parser_on_random_terms_and_their_mutants():
    """Rendered random family terms, each also with one token dropped,
    repeated or swapped for another: the reader gives what the parser and
    ``evaluate_family`` give, map or error."""
    rng = random.Random(71)
    swaps = ["{", "}", "(", ")", "+", ",", "=", ":", "hide", "f", "0", "2", ""]
    for _ in range(400):
        text = render_family_term(_random_family_term(rng, 4))
        tokens = re.findall(r"\w+|\S", text)
        assert _outcome(_read, text) == ("read", list(evaluate_family(parse(text)).items()))
        for _ in range(3):
            j = rng.randrange(len(tokens))
            mutant = tokens[:j] + rng.choice([[], [tokens[j]] * 2, [rng.choice(swaps)]]) + tokens[j + 1 :]
            text = " ".join(mutant)
            assert _outcome(_read, text) == _outcome(_by_parser, text), text
