import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import iseq
from iseq import registers
from iseq.registers import evaluate_family
from iseq.syntax import (
    AbstractAction,
    ComposeFamily,
    Concat,
    EmptyFamily,
    Focus,
    FunctionTable,
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
    table_from_rows,
)

from . import oracles

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
    "text,message,position",
    [
        pytest.param("", "expected an instruction, found 'end of input'", 0, id="-instruction"),
        pytest.param("a;;b", "expected an instruction, found ';'", 2, id="a;;b-instruction"),
        pytest.param("#x", "expected 'nat', found 'x'", 1, id="#x-nat"),
        pytest.param("a*;(b", "expected ')', found 'end of input'", 5, id="a*;(b-)"),
        pytest.param(
            "f.2/1;!",
            "expected a register operation token 0, 1, i or c, found '2'",
            2,
            id="f.2/1;!-register operation",
        ),
        pytest.param("in:0.i/i", "focus index must be >= 1", 3, id="in:0.i/i->= 1"),
        pytest.param(
            "in:1;!",
            "indexed focus must name a register operation ('.')",
            4,
            id="in:1;!-register operation",
        ),
        pytest.param("a**", "trailing input '*'", 2, id="a**-trailing"),
        # str.isdigit admits '²', which int() cannot read
        pytest.param("#²", "unexpected character '²'", 1, id="#²-unexpected"),
        pytest.param("f:².1/1", "unexpected character '²'", 2, id="f:².1/1-unexpected"),
        # '½' is a word character that may not start a token
        pytest.param("#½", "unexpected character '½'", 1, id="#½-unexpected"),
        pytest.param("a;b #1 ½;@", "unexpected character '½'", 7, id="a;b #1 ½;@-unexpected"),
    ],
)
def test_parse_errors_have_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_instruction_sequence(text)
    assert (err.value.message, err.value.position) == (message, position)


# every row is also run through the CLI (tests/test_cli.py)
FAMILY_ERRORS = [
    ("", "expected a register family, found 'end of input'", 0),
    ("x", "expected a register family, found 'x'", 0),
    ("{", "expected 'ident', found 'end of input'", 1),
    ("{f}", "expected '=', found '}'", 2),
    ("{f.1=0}", "expected '=', found '.'", 2),
    ("{f=2}", "expected register content 0, 1 or -, found '2'", 3),
    ("{f=1,}", "expected 'ident', found '}'", 5),
    ("{f=1;g=0}", "expected '}', found ';'", 4),
    ("{f:0=1}", "focus index must be >= 1", 3),
    ("{f:x=1}", "expected 'nat', found 'x'", 3),
    ("{f=1} +", "expected a register family, found 'end of input'", 7),
    ("{f=1} {g=0}", "trailing input '{'", 6),
    ("hide(f)({})", "expected '{', found '('", 4),
    ("hide{f}", "expected '(', found 'end of input'", 7),
    ("hide{f}({f=1}", "expected ')', found 'end of input'", 13),
    ("{f:²=1}", "unexpected character '²'", 3),
    ("{f:½=1}", "unexpected character '½'", 3),
    ("{f=1, g=}\t@", "unexpected character '@'", 10),
]


@pytest.mark.parametrize("text,message,position", FAMILY_ERRORS)
def test_family_parse_errors_have_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_register_family(text)
    assert (err.value.message, err.value.position) == (message, position)


def test_numerals_are_decimal_digits():
    # any Unicode decimal digit is a numeral digit; other digits are not
    assert parse_instruction_sequence("#٣") == Jump(3)
    assert parse_instruction_sequence("a²") == Plain(AbstractAction("a²"))
    assert parse_instruction_sequence("a½") == Plain(AbstractAction("a½"))


def test_numerals_past_ints_digit_limit_are_parse_errors():
    """A jump literal with a nonzero digit before its last ten, or a focus
    index ``int`` refuses (past 4,300 digits), is a ParseError at its
    position, not ``int``'s own ValueError; leading zeros, in any script,
    do not make a jump literal too large."""
    long, padded = "9" * 5000, "0" * 5000 + "1000000001"
    for parse, text, message, position in [
        (parse_instruction_sequence, "#" + long, f"jump literal {long} is too large", 1),
        (parse_instruction_sequence, "#" + padded, f"jump literal {padded} is too large", 1),
        (parse_instruction_sequence, "a;#10000000005", "jump literal 10000000005 is too large", 3),
        (parse_instruction_sequence, "f:" + long + ".i/i", f"focus index {long} has too many digits", 2),
        (parse_register_family, "{f:" + long + "=0}", f"focus index {long} has too many digits", 3),
        (parse_register_family, "hide{g, f:" + long + "}({})", f"focus index {long} has too many digits", 10),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.position) == (message, position), text[:20]
    assert parse_instruction_sequence("#" + "0" * 5000 + "1") == Jump(1)
    assert parse_instruction_sequence("#" + "0" * 5000 + "1000000000") == Jump(10**9)
    assert parse_instruction_sequence("#" + "٠" * 20 + "٣") == Jump(3)


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


def test_table_row_count_is_checked_before_any_row():
    """The row count is compared with 2**n by its bit length, so a table of
    20,000 or 10**7 inputs with no rows is refused at once, with a short
    message, before 2**n is spelt out in decimal or any n-bit row is
    formatted; a key that is not a row still reads as a missing row."""
    for n in (20_000, 10**7):
        with pytest.raises(ValueError) as info:
            FunctionTable(n, 1, ())
        assert str(info.value) == f"table needs 2**{n} rows, got 0"
        with pytest.raises(ValueError) as info:
            table_from_rows(n, 1, {})
        assert str(info.value) == f"table needs 2**{n} rows, got 0"
    with pytest.raises(ValueError, match=r"^table needs 2\*\*1 rows, got 3$"):
        FunctionTable(1, 1, ("0", "1", "1"))
    with pytest.raises(ValueError, match=r"^table arity must be natural$"):
        parse_function_table("inputs -1 outputs 1\n")
    with pytest.raises(ValueError, match=r"^missing table row for input '1'$"):
        table_from_rows(1, 1, {"0": "1", "x": "0"})


def test_table_error_names_the_first_bad_output_in_row_order():
    with pytest.raises(ValueError, match=r"^output '2' is not a 1-bit string$"):
        FunctionTable(2, 1, ("0", "2", "1", "01"))
    with pytest.raises(ValueError, match=r"^output '01' is not a 1-bit string$"):
        FunctionTable(2, 1, ("0", "01", "1", "2"))


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


# text where the two tokenizers could part: numeric characters that are not
# decimal digits ('²', '½') or are ('٣'), '_', tabs, newlines and other
# white space, a stray character, any one character at all, a jump past its
# bound and nesting one level past MAX_NESTING; numerals past int's digit
# limit, and jump literals padded by zeros, are given as examples, since the
# character-by-character tokenizer takes a millisecond over each
_plain_text = st.text(alphabet="af_;*()#!+-.:/{}=, 019ic²½٣\t\n\u2003@", max_size=12)
_fragments = st.sampled_from([
    "", "aux", "hide", "a²", "9" * 10, "(" * (MAX_NESTING + 1), "hide{f}(" * (MAX_NESTING + 1),
    "+f.i/c;#2;(a;!)*", "-aux:1.c/0", "f:2.1/1", "{f=1, aux:2=-}", "hide{f, g}({f=0} + {g=1})",
])
_texts = st.tuples(_plain_text, _fragments, st.characters(), _plain_text, _fragments).map("".join)


def _outcome(parser, text):
    try:
        return "parsed", parser(text)
    except ParseError as err:
        return "refused", err.message, err.position


@settings(max_examples=300, deadline=None)
@given(_texts)
@example("#" + "1" * 5000)
@example("#" + "0" * 5000 + "1")
@example("#" + "٠" * 12 + "٣")
@example("#" + "0" * 9 + "10000000000")
@example("a;f:" + "٣" * 5000 + ".1/1")
@example("{f:" + "1" * 5000 + "=1}")
def test_parsers_agree_with_the_token_tuple_parsers(text):
    """On arbitrary text, both parsers give the term, or the error message
    and position, that the parsers over (kind, text, position) token tuples
    gave (``tests/oracles.py``)."""
    assert _outcome(parse_instruction_sequence, text) == _outcome(oracles.parse_instruction_sequence, text)
    assert _outcome(parse_register_family, text) == _outcome(oracles.parse_register_family, text)


@settings(max_examples=300, deadline=None)
@given(_texts)
@example("#" + "1" * 5000)
@example("a;f:" + "٣" * 5000 + ".1/1")
@example("{f:" + "1" * 5000 + "=1}")
def test_family_reader_agrees_with_parse_then_evaluate(text):
    """On arbitrary text, the CLI's one-pass family reader gives the map,
    keys in the same order, that ``evaluate_family`` gives of the parsed
    term, or the parser's error message and position."""
    def items(read):
        return lambda text: list(read(text).items())

    expected = _outcome(items(lambda text: evaluate_family(parse_register_family(text))), text)
    assert _outcome(items(registers._read), text) == expected


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


def test_a_fresh_import_frees_the_previous_classes():
    """The module-level unions are ``|`` unions: ``typing.Union`` caches its
    arguments, which kept every earlier import of the package alive."""
    script = textwrap.dedent(
        """
        import gc, importlib, sys, weakref

        def fresh():
            for name in [n for n in sys.modules if n == "iseq" or n.startswith("iseq.")]:
                del sys.modules[name]
            return importlib.import_module("iseq")

        pkg = fresh()
        refs = [weakref.ref(pkg.syntax.Plain), weakref.ref(pkg.threads.Branch)]
        del pkg
        fresh()
        gc.collect()
        print([ref() is None for ref in refs])
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        cwd=Path(iseq.__file__).parent.parent,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[True, True]\n", "")
