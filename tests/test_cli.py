import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iseq
from iseq import cli
from iseq.cli import run_command

from .test_syntax import FAMILY_ERRORS


def run(*argv):
    return run_command(list(argv))


def test_parse_round_trip():
    code, out, err = run("parse", "-e", "(-a;(#3;(b;!)))*")
    assert code == 0 and err == ""
    assert out == "(-a;#3;b;!)*\n"


def test_module_entry_point_runs_the_command():
    env = dict(os.environ, PYTHONPATH=str(Path(iseq.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "iseq.cli", "parse", "-e", "a;b"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "a;b\n", "")


def test_parse_error_exits_2():
    code, out, err = run("parse", "-e", "a;;b")
    assert code == 2
    assert "error" in err
    code, out, err = run("parse", "-e", "#²")
    assert (code, out, err) == (2, "", "error: unexpected character '²' (at position 1)\n")


def test_numerals_past_ints_digit_limit_exit_2_with_a_position():
    """A 5,000-digit jump literal or focus index is refused with its
    position; a jump literal padded by 5,000 zeros is read."""
    long = "9" * 5000
    assert run("parse", "-e", "#" + long) == (2, "", f"error: jump literal {long} is too large (at position 1)\n")
    expected = f"error: focus index {long} has too many digits (at position {{}})\n"
    assert run("parse", "-e", "f:" + long + ".i/i") == (2, "", expected.format(2))
    assert run("family-eval", "-e", "{f:" + long + "=0}") == (2, "", expected.format(3))
    assert run("apply", "-e", "!", "-f", "{f:" + long + "=0}") == (2, "", expected.format(3))
    assert run("parse", "-e", "#" + "0" * 5000 + "1") == (0, "#1\n", "")


def test_normalize_second_form():
    code, out, _ = run("normalize", "--form", "second", "-e", "-a;#2;(+b;#2)*")
    assert code == 0
    code2, out2, _ = run("normalize", "--form", "second", "-e", "-a;#0;(+b;#0)*")
    assert out == out2


def test_normalize_first_and_isc_alias():
    code, out, _ = run("normalize", "--form", "first", "-e", "(a;b)*;c")
    assert code == 0 and out == "a;(b;a)*\n"
    _, out_isc, _ = run("normalize", "--form", "isc", "-e", "(a;b)*;c")
    assert out_isc == out


def test_equiv_behavioural_true():
    code, out, _ = run("equiv", "--relation", "behavioural", "-e", "a;#2;+b;!", "-e", "a;#2;+c;!")
    assert code == 0 and out == "true\n"


def test_equiv_congruence_false_exits_1():
    code, out, _ = run("equiv", "--relation", "congruence", "-e", "a;#2;+b;!", "-e", "a;#2;+c;!")
    assert code == 1 and out == "false\n"


def test_equiv_isc_and_structural():
    assert run("equiv", "--relation", "isc", "-e", "(a;b)*;c", "-e", "a;(b;a)*")[0] == 0
    assert run("equiv", "--relation", "structural", "-e", "-a;#2;(+b;#2)*", "-e", "-a;#0;(+b;#0)*")[0] == 0
    assert run("equiv", "--relation", "isc", "-e", "-a;#2;(+b;#2)*", "-e", "-a;#0;(+b;#0)*")[0] == 1


def test_equiv_functional():
    code, out, _ = run(
        "equiv", "--relation", "functional", "--inputs", "1", "--outputs", "1",
        "-e", "+in:1.i/i;#2;!;out:1.1/1;!", "-e", "-in:1.i/i;#3;out:1.1/1;!;!",
    )
    assert code == 0 and out == "true\n"


def test_equiv_functional_on_20_inputs_exits_within_a_second():
    """2**20 rows run as big-int masks, in chunks of 2**16, and the first
    chunk already tells ``!`` from ``#0``."""
    start = time.perf_counter()
    code, out, err = run("equiv", "--relation", "functional", "--inputs", "20", "--outputs", "1", "-e", "!", "-e", "#0")
    assert (code, out, err) == (1, "false\n", "")
    assert time.perf_counter() - start < 1


def test_equiv_functional_on_a_million_inputs_runs_only_the_named_ones():
    """Neither ``!`` nor ``#0`` names an input, so a million inputs cost one
    row; ``!`` and ``!;!`` agree on all 2**64 rows of 64 inputs."""
    argv = ["equiv", "--relation", "functional", "--outputs", "1"]
    assert run_command([*argv, "--inputs", "1000000", "-e", "!", "-e", "#0"]) == (1, "false\n", "")
    assert run_command([*argv, "--inputs", "64", "-e", "!", "-e", "!;!"]) == (0, "true\n", "")


def test_extract_prints_equations():
    code, out, _ = run("extract", "-e", "(+a;#2;#3;b;!)*")
    assert code == 0
    assert out == "X0 = (X1) <a> (X0)\nX1 = (S) <b> (S)\n"


def test_family_eval():
    code, out, _ = run("family-eval", "-e", "hide{f}({f=1, g=0})")
    assert code == 0 and out == "{g=0}\n"
    code, out, _ = run("family-eval", "-e", "{f=0} + {f=1}")
    assert out == "{f=-}\n"


def test_family_eval_with_3000_bindings():
    names = [f"r{i}" for i in range(3000)]
    code, out, err = run("family-eval", "-e", "{" + ", ".join(f"{n}=1" for n in names) + "}")
    assert code == 0 and err == ""
    assert out == "{" + ", ".join(f"{n}=1" for n in sorted(names)) + "}\n"
    code, out, err = run("family-eval", "-e", " + ".join(f"{{{n}=0}}" for n in names) + " + {r7=1}")
    assert code == 0 and err == ""
    assert "r7=-" in out and out.count("=0") == 2999


@pytest.mark.parametrize("text,message,position", FAMILY_ERRORS)
def test_family_errors_exit_2_with_the_parsers_message(text, message, position):
    """Every family parse error reaches stderr with its message and position,
    whether the family is the term of ``family-eval`` or the registers of
    ``apply``."""
    expected = (2, "", f"error: {message} (at position {position})\n")
    assert run("family-eval", "-e", text) == expected
    assert run("apply", "-e", "!", "-f", text) == expected


def test_deep_nesting_exits_2_without_traceback():
    for argv in (
        ("parse", "-e", "(" * 3000 + "a" + ")" * 3000),
        ("normalize", "-e", "(" * 400 + "a" + ")*" * 400),
        ("family-eval", "-e", "hide{f}(" * 3000 + "{}" + ")" * 3000),
        ("family-eval", "-e", "(" * 3000 + "{f=1}" + ")" * 3000),
    ):
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nesting" in err and "Traceback" not in err


def test_use_apply_abstract_simulate():
    prog = ";".join(f"-aux:{i}.i/i;#3;aux:{i}.0/0;!;aux:{i}.1/1" for i in range(1, 5))
    family = "{aux:4=1, aux:3=1, aux:2=1, aux:1=0}"
    code, out, _ = run("use", "-e", prog, "-f", family)
    assert code == 0
    assert out.count("tau") == 4
    code, out, _ = run("apply", "-e", prog, "-f", family)
    assert out == "{aux:1=1, aux:2=0, aux:3=1, aux:4=1}\n"
    code, out, _ = run("abstract", "-e", prog, "-f", family)
    assert out == "X0 = S\n"
    code, out, _ = run("simulate", "--fuel", "50", "-e", prog, "-f", family)
    assert out == "terminated {aux:1=1, aux:2=0, aux:3=1, aux:4=1}\n"


@pytest.mark.parametrize(
    "argv, result",
    [
        (("apply", "-e", "a;!"), (2, "", "error: abstract action a cannot interact with registers\n")),
        (("use", "-e", "a;!", "-f", "{f=0}"), (2, "", "error: abstract action a cannot interact with registers\n")),
        (("simulate", "-e", "a;!"), (2, "", "error: cannot execute abstract action a\n")),
        # an abstract action that the run never reaches raises nothing
        (("apply", "-e", "!;a", "-f", "{f=1}"), (0, "{f=1}\n", "")),
        (("simulate", "-e", "!;a"), (0, "terminated {}\n", "")),
    ],
)
def test_abstract_actions_refuse_to_run_on_registers(argv, result):
    assert run(*argv) == result


def test_computes_and_tables(tmp_path):
    table = tmp_path / "id.tbl"
    table.write_text("inputs 1 outputs 1\n0 -> 0\n1 -> 1\n")
    code, out, _ = run("computes", "--table", str(table), "--aux", "0", "-e", "+in:1.i/i;#2;!;out:1.1/1;!")
    assert code == 0 and out == "true\n"
    code, out, _ = run("computes", "--table", str(table), "-e", "out:1.1/1;!")
    assert code == 1 and out == "false\n"
    code, out, _ = run("compile-table", "--table", str(table))
    assert code == 0
    compiled = out.strip()
    code, out, _ = run("computes", "--table", str(table), "-e", compiled)
    assert code == 0


def test_restrict_core_cli():
    code, out, _ = run(
        "restrict-core", "--aux", "1", "--outputs", "1", "-e", "aux:1.c/c;out:1.1/1;!"
    )
    assert code == 0
    assert "c" not in out.replace("aux", "").replace("out", "")


def test_search_cli(tmp_path):
    table = tmp_path / "ct.tbl"
    table.write_text("inputs 0 outputs 1\n -> 1\n")
    code, out, _ = run("search", "--table", str(table), "--max-len", "3")
    assert code == 0
    assert out.strip().count(";") == 1  # two instructions
    code, out, _ = run("search", "--table", str(table), "--max-len", "1")
    assert code == 1 and out == "none\n"


XOR_TABLE = "inputs 2 outputs 1\n00 -> 0\n01 -> 1\n10 -> 1\n11 -> 0\n"


def test_search_cli_finds_xor_at_length_8(tmp_path):
    table = tmp_path / "xor.tbl"
    table.write_text(XOR_TABLE)
    code, out, err = run("search", "--table", str(table), "--max-len", "40")
    assert (code, err) == (0, "")
    assert out == "+in:1.i/i;#3;-in:2.i/i;!;+in:1.i/i;-in:2.i/i;out:1.1/1;!\n"


def test_search_node_budget_exits_2(tmp_path):
    table = tmp_path / "xor.tbl"
    table.write_text(XOR_TABLE)
    code, out, err = run("search", "--table", str(table), "--max-len", "40", "--max-nodes", "100")
    assert (code, out) == (2, "")
    assert err == (
        "error: search node budget of 100 exhausted; "
        "no program of length 5 or less computes the table\n"
    )
    code, out, err = run("search", "--table", str(table), "--max-len", "3", "--max-nodes", "-1")
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = run("search", "--help")
    assert code == 0 and "default 250000" in " ".join(out.split())


def test_unknown_subcommand_exits_2():
    code, _, _ = run("frobnicate")
    assert code == 2


def test_terms_from_files(tmp_path):
    first = tmp_path / "first.iseq"
    second = tmp_path / "second.iseq"
    first.write_text("(a;b)*;c\n")
    second.write_text("a;(b;a)*\n")
    code, out, _ = run("equiv", "--relation", "isc", "--file", str(first), "--file", str(second))
    assert code == 0 and out == "true\n"
    code, out, _ = run("parse", "--file", str(first))
    assert code == 0 and out == "(a;b)*;c\n"


def test_missing_file_exits_2():
    code, _, err = run("parse", "--file", "/nonexistent/path.iseq")
    assert code == 2 and "error" in err


def test_term_counts_exit_2():
    assert run("parse", "-e", "a", "-e", "b") == (2, "", "error: expected exactly one term (-e/--file)\n")
    assert run("equiv", "--relation", "isc", "-e", "a") == (2, "", "error: equiv needs exactly two terms\n")


def test_family_file_reads_like_family(tmp_path):
    """``--family-file`` gives what ``-f`` gives with the file's text, and
    for ``abstract`` the file alone turns ``use`` on."""
    missing = tmp_path / "missing.fam"
    assert run("use", "-e", "a", "--family-file", str(missing)) == (
        2, "", f"error: cannot read {missing}: No such file or directory\n"
    )
    prog = "-aux:1.i/i;#3;aux:1.0/0;!;aux:2.1/1;f.i/c;!"
    family = "{aux:2=1, aux:1=0, f=0}"
    path = tmp_path / "family.fam"
    path.write_text(family + "\n")
    for argv in (("use",), ("apply",), ("abstract",), ("simulate", "--fuel", "20")):
        assert run(*argv, "-e", prog, "--family-file", str(path)) == run(*argv, "-e", prog, "-f", family), argv
    path.write_text("{f=0}\n")
    assert run("abstract", "-e", "f.i/c;!", "--family-file", str(path)) == (0, "X0 = S\n", "")


def test_help_lists_subcommands():
    code, out, err = run("--help")
    assert code == 0
    text = out + err
    for name in (
        "parse", "normalize", "extract", "equiv", "family-eval", "use", "apply",
        "abstract", "simulate", "computes", "compile-table", "restrict-core", "search",
    ):
        assert name in text


def test_value_options_are_every_option_that_takes_a_value():
    """``_VALUE_OPTIONS``, which ``_join_option_values`` joins to the next
    argument, holds exactly the option strings of every action that takes a
    value, across all 13 subcommands."""
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions if action.choices and action.dest == "command"]
    assert len(commands.choices) == 13
    taking = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        if action.nargs != 0
        for option in action.option_strings
    }
    assert cli._VALUE_OPTIONS == taking


def test_huge_or_negative_table_header_exits_2_with_a_short_message(tmp_path):
    """A table file holding only the header ``inputs 10000000 outputs 1``
    is refused by its row count, without spelling out a 10**7-bit row; a
    negative input count is refused rather than raising TypeError."""
    table = tmp_path / "header.tbl"
    for header, message in (
        ("inputs 10000000 outputs 1", "table needs 2**10000000 rows, got 0"),
        ("inputs -1 outputs 1", "table arity must be natural"),
    ):
        table.write_text(header + "\n")
        assert run("compile-table", "--table", str(table)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty table: expected a header 'inputs <n> outputs <m>'"),
        ("inputs 1 output 1\n", "bad table header 'inputs 1 output 1'"),
        ("inputs one outputs 1\n", "bad table header 'inputs one outputs 1'"),
        ("inputs 1 outputs 1\n0 0\n", "bad table row '0 0'"),
        ("inputs 1 outputs 1\n00 -> 0\n1 -> 1\n", "input '00' is not a 1-bit string"),
        ("inputs 1 outputs 1\n2 -> 0\n1 -> 1\n", "input '2' is not a 1-bit string"),
        ("inputs 1 outputs 1\n0 -> 0\n0 -> 1\n", "duplicate table row for input '0'"),
        ("inputs 1 outputs 1\n0 -> 01\n1 -> 1\n", "output '01' is not a 1-bit string"),
        ("inputs 1 outputs 1\n0 -> 2\n1 -> 1\n", "output '2' is not a 1-bit string"),
        # the row count is checked before any output
        ("inputs 1 outputs 1\n0 -> 2\n", "table needs 2**1 rows, got 1"),
    ],
)
def test_table_file_errors_exit_2_with_their_message(tmp_path, text, message):
    table = tmp_path / "bad.tbl"
    table.write_text(text)
    assert run("computes", "--table", str(table), "-e", "!") == (2, "", f"error: {message}\n")


def test_huge_register_counts_cost_only_the_named_registers(tmp_path):
    """A billion auxiliary or output registers cost no more than one: each
    pair of programs naming register 1,000,000,000 gets the verdict it gets
    with the register renamed to index 1 and a count of 1, all within a
    second.  ``computes`` keeps every input and output of its table."""
    table = tmp_path / "id.tbl"
    table.write_text("inputs 1 outputs 1\n0 -> 0\n1 -> 1\n")
    functional = ["equiv", "--relation", "functional", "--inputs", "1"]
    cases = [
        (["computes", "--table", str(table), "--aux"], "aux:{}.1/1;+aux:{}.i/i;+in:1.i/i;out:1.1/1;!", None, 0),
        (["computes", "--table", str(table), "--aux"], "+aux:{}.i/i;#0;+in:1.i/i;out:1.1/1;!", None, 0),
        (["computes", "--table", str(table), "--aux"], "-aux:{}.i/i;out:1.1/1;!", None, 1),
        ([*functional, "--outputs"], "out:{}.1/1;!", "out:{}.1/1;!;!", 0),
        ([*functional, "--outputs"], "+in:1.i/i;out:{}.1/1;!", "-in:1.i/i;#2;out:{}.1/1;!", 0),
        ([*functional, "--outputs"], "out:{}.1/1;!", "!", 1),
        ([*functional, "--outputs", "1", "--aux"], "aux:{}.1/1;+aux:{}.i/i;out:1.1/1;!", "out:1.1/1;!", 0),
        ([*functional, "--outputs", "1", "--aux"], "+aux:{}.i/i;out:1.1/1;!", "out:1.1/1;!", 1),
    ]
    start = time.perf_counter()
    for argv, *programs, code in cases:
        for count in ("1000000000", "1"):
            texts = [arg for text in programs if text for arg in ("-e", text.replace("{}", count))]
            assert run(*argv, count, *texts) == (code, ["true\n", "false\n"][code], ""), (argv, programs, count)
    assert time.perf_counter() - start < 1


def test_negative_budgets_exit_2(tmp_path):
    code, out, err = run("simulate", "--fuel", "-5", "-e", "!")
    assert (code, out) == (2, "") and err.startswith("error: ")
    table = tmp_path / "ct.tbl"
    table.write_text("inputs 0 outputs 1\n -> 1\n")
    code, out, err = run("search", "--table", str(table), "--max-len", "-1")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_repeated_invocations_are_independent():
    argv = ("equiv", "--relation", "behavioural", "-e", "a;#2;+b;!", "-e", "a;#2;+c;!")
    first = run(*argv)
    assert run("equiv", "--relation", "nonsense", "-e", "a")[0] == 2
    assert run(*argv) == first
