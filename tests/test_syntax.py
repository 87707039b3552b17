import pickle

import pytest
from hypothesis import given, settings, strategies as st

from iseq.syntax import (
    AbstractAction,
    ComposeFamily,
    Concat,
    EmptyFamily,
    Focus,
    Halt,
    HideFamily,
    Jump,
    NegTest,
    ParseError,
    Plain,
    PosTest,
    RegisterAction,
    RegisterContent,
    Repeat,
    SingletonFamily,
    UnaryBoolFunc,
    concat_all,
    parse_function_table,
    parse_instruction_sequence,
    MAX_NESTING,
    parse_register_family,
    render_family_term,
    render_function_table,
    render_term,
)

ID = UnaryBoolFunc.IDENTITY
T1 = UnaryBoolFunc.CONST_TRUE


def test_parse_simple_repetition_example():
    term = parse_instruction_sequence("(-a;(#3;(b;!)))*")
    assert term == Repeat(
        Concat(
            NegTest(AbstractAction("a")),
            Concat(Jump(3), Concat(Plain(AbstractAction("b")), Halt())),
        )
    )


def test_parse_single_halt():
    assert parse_instruction_sequence("!") == Halt()


def test_parse_register_instructions():
    term = parse_instruction_sequence("+in:1.i/i;#2;!;out:1.1/1;!")
    assert term == Concat(
        PosTest(RegisterAction(Focus("in", 1), ID, ID)),
        Concat(
            Jump(2),
            Concat(Halt(), Concat(Plain(RegisterAction(Focus("out", 1), T1, T1)), Halt())),
        ),
    )


def test_concatenation_is_right_associative():
    assert parse_instruction_sequence("a;b;c") == Concat(
        Plain(AbstractAction("a")),
        Concat(Plain(AbstractAction("b")), Plain(AbstractAction("c"))),
    )


def test_render_parenthesizes_left_nesting():
    term = Concat(
        Concat(Plain(AbstractAction("a")), Plain(AbstractAction("b"))),
        Plain(AbstractAction("c")),
    )
    assert render_term(term) == "(a;b);c"
    assert parse_instruction_sequence(render_term(term)) == term


@pytest.mark.parametrize(
    "text,message_part",
    [
        ("", "instruction"),
        ("a;;b", "instruction"),
        ("#x", "nat"),
        ("a*;(b", ")"),
        ("f.2/1;!", "register operation"),
        ("in:0.i/i", ">= 1"),
        ("in:1;!", "register operation"),
        ("a**", "trailing"),
    ],
)
def test_parse_errors_have_positions(text, message_part):
    with pytest.raises(ParseError) as err:
        parse_instruction_sequence(text)
    assert message_part in str(err.value)
    assert err.value.position >= 0


def test_tau_is_not_parseable():
    # 'tau' is just an abstract action name, never the internal action
    term = parse_instruction_sequence("tau")
    assert term == Plain(AbstractAction("tau"))


# -- register families ------------------------------------------------------


def test_parse_family_bindings():
    term = parse_register_family("{aux:1=0, aux:2=1}")
    assert term == ComposeFamily(
        SingletonFamily(Focus("aux", 1), RegisterContent.ZERO),
        SingletonFamily(Focus("aux", 2), RegisterContent.ONE),
    )


def test_parse_family_inoperative_and_empty():
    assert parse_register_family("{f=-}") == SingletonFamily(
        Focus("f"), RegisterContent.INOPERATIVE
    )
    assert parse_register_family("{}") == EmptyFamily()


def test_parse_family_hide_and_compose():
    term = parse_register_family("hide{f}({f=1, g=0})")
    assert isinstance(term, HideFamily)
    assert term.hidden == frozenset({Focus("f")})
    assert isinstance(term.body, ComposeFamily)
    plus = parse_register_family("{f=0} + {f=1}")
    assert isinstance(plus, ComposeFamily)


# -- function tables ---------------------------------------------------------


def test_parse_identity_table():
    table = parse_function_table("inputs 1 outputs 1\n0 -> 0\n1 -> 1\n")
    assert table.n == 1 and table.m == 1
    assert table.value("0") == "0" and table.value("1") == "1"


def test_parse_nullary_table():
    table = parse_function_table("inputs 0 outputs 1\n -> 1\n")
    assert table.n == 0
    assert table.value("") == "1"


def test_parse_partial_table():
    table = parse_function_table(
        "inputs 2 outputs 1\n00 -> 0\n01 -> _\n10 -> _\n11 -> 1\n"
    )
    assert table.value("01") is None and table.value("10") is None


@pytest.mark.parametrize(
    "text",
    [
        "inputs 1 outputs 1\n0 -> 0\n",  # missing row
        "inputs 1 outputs 1\n0 -> 0\n0 -> 1\n1 -> 1\n",  # duplicate
        "inputs 1 outputs 1\n0 -> 00\n1 -> 1\n",  # width
        "inputs 1\n0 -> 0\n1 -> 1\n",  # header
    ],
)
def test_table_errors(text):
    with pytest.raises(ValueError):
        parse_function_table(text)


def test_table_render_round_trip():
    text = "inputs 2 outputs 2\n00 -> 01\n01 -> _\n10 -> 11\n11 -> _\n"
    table = parse_function_table(text)
    assert parse_function_table(render_function_table(table)) == table


# -- round-trip properties ----------------------------------------------------

_actions = st.sampled_from(
    [AbstractAction("a"), AbstractAction("b")]
    + [
        RegisterAction(Focus(name, idx), p, q)
        for name, idx in (("in", 1), ("aux", 3), ("f", None))
        for p in UnaryBoolFunc
        for q in UnaryBoolFunc
    ]
)

_primitives = st.one_of(
    st.builds(Plain, _actions),
    st.builds(PosTest, _actions),
    st.builds(NegTest, _actions),
    st.builds(Jump, st.integers(min_value=0, max_value=9)),
    st.just(Halt()),
)

_terms = st.recursive(
    _primitives,
    lambda inner: st.one_of(st.builds(Concat, inner, inner), st.builds(Repeat, inner)),
    max_leaves=20,
)


@settings(max_examples=200)
@given(_terms)
def test_term_round_trip(term):
    assert parse_instruction_sequence(render_term(term)) == term


_foci = st.sampled_from([Focus("f"), Focus("aux", 1), Focus("out", 2)])
_contents = st.sampled_from(list(RegisterContent))

_families = st.recursive(
    st.one_of(st.just(EmptyFamily()), st.builds(SingletonFamily, _foci, _contents)),
    lambda inner: st.one_of(
        st.builds(ComposeFamily, inner, inner),
        st.builds(
            HideFamily, st.frozensets(_foci, min_size=1, max_size=2), inner
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=200)
@given(_families)
def test_family_round_trip(family):
    assert parse_register_family(render_family_term(family)) == family


@settings(max_examples=300)
@given(st.text(alphabet="ab;*()#!+-.:/{}=, 019ic", max_size=30))
def test_grammar_totality(text):
    # every input either parses or raises a positioned syntax error
    for parser in (parse_instruction_sequence, parse_register_family):
        try:
            parser(text)
        except ParseError as err:
            assert 0 <= err.position <= len(text)


def test_huge_jump_literal_rejected():
    with pytest.raises(ParseError):
        parse_instruction_sequence("#" + "9" * 40)


def test_nesting_is_capped():
    inner = "(" * MAX_NESTING + "a" + ")*" * MAX_NESTING
    term = parse_instruction_sequence(inner)
    assert parse_instruction_sequence(render_term(term)) == term
    with pytest.raises(ParseError, match="nesting"):
        parse_instruction_sequence("(" + inner + ")")
    family = "hide{f}(" * MAX_NESTING + "{}" + ")" * MAX_NESTING
    assert parse_register_family(family) is not None
    with pytest.raises(ParseError, match="nesting"):
        parse_register_family("(" + family + ")")


def test_long_composition_round_trips():
    text = " + ".join(f"{{r{i}=1}}" for i in range(3000))
    family = parse_register_family(text)
    assert render_family_term(family) == text
    bindings = "{" + ", ".join(f"r{i}=1" for i in range(3000)) + "}"
    assert render_family_term(parse_register_family(bindings)) == text


def test_long_concatenation_compares_and_hashes():
    """A 9001-instruction term, the size ``restrict_to_core`` makes of 3000
    complements and a halt: ``==`` and ``hash`` walk it without recursion."""
    complement = Plain(RegisterAction(Focus("aux", 1), UnaryBoolFunc.COMPLEMENT, UnaryBoolFunc.COMPLEMENT))
    first = concat_all([complement] * 9000 + [Halt()])
    second = concat_all([complement] * 9000 + [Halt()])
    third = concat_all([complement] * 9000 + [Jump(0)])
    assert first == second and hash(first) == hash(second)
    assert first != third
    assert len({first, second, third}) == 2
    assert Concat(Concat(Halt(), Jump(0)), Halt()) != Concat(Halt(), Concat(Jump(0), Halt()))


def test_long_composition_compares_and_hashes():
    text = " + ".join(f"{{r{i}=1}}" for i in range(3000))
    first, second = parse_register_family(text), parse_register_family(text)
    other = parse_register_family(text[:-2] + "0}")
    assert first == second and hash(first) == hash(second)
    assert first != other
    assert len({first, second, other}) == 2


def dataclass_repr(node):
    """The text the dataclass-generated ``repr`` gave, built recursively."""
    if isinstance(node, (Concat, ComposeFamily)):
        return f"{type(node).__name__}(left={dataclass_repr(node.left)}, right={dataclass_repr(node.right)})"
    if isinstance(node, Repeat):
        return f"Repeat(body={dataclass_repr(node.body)})"
    if isinstance(node, HideFamily):
        return f"HideFamily(hidden={node.hidden!r}, body={dataclass_repr(node.body)})"
    return repr(node)


def test_repr_of_short_terms_is_the_dataclass_text():
    assert repr(Concat(Halt(), Concat(Jump(1), Halt()))) == (
        "Concat(left=Halt(), right=Concat(left=Jump(offset=1), right=Halt()))"
    )
    assert repr(ComposeFamily(EmptyFamily(), EmptyFamily())) == (
        "ComposeFamily(left=EmptyFamily(), right=EmptyFamily())"
    )
    for text in ("a;(+b;#2;(c;!)*)*", "(a;b);(c;d)", "-f.0/c;#0"):
        t = parse_instruction_sequence(text)
        assert repr(t) == dataclass_repr(t)
    for text in ("{a=1} + {b=0} + {c=-}", "({a=1} + {b=0}) + hide{a}({a=1} + {c=0})"):
        f = parse_register_family(text)
        assert repr(f) == dataclass_repr(f)


def test_long_terms_repr_and_pickle():
    """5,000 instructions and 3,000 bindings: ``repr`` and pickling walk
    them without recursion, and unpickling rebuilds an equal term."""
    term = concat_all([Halt()] * 4999 + [Jump(2)])
    text = repr(term)
    assert text.startswith("Concat(left=Halt(), right=Concat(left=Halt(), ")
    assert text.endswith("right=Jump(offset=2)" + ")" * 4999)
    assert pickle.loads(pickle.dumps(term)) == term
    family = parse_register_family(" + ".join(f"{{r{i}=1}}" for i in range(3000)))
    assert repr(family).count("SingletonFamily(") == 3000
    copy = pickle.loads(pickle.dumps(family))
    assert copy == family and render_family_term(copy) == render_family_term(family)
