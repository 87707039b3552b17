from iseq.cli import run_command


def run(*argv):
    return run_command(list(argv))


def test_parse_round_trip():
    code, out, err = run("parse", "-e", "(-a;(#3;(b;!)))*")
    assert code == 0 and err == ""
    assert out == "(-a;#3;b;!)*\n"


def test_parse_error_exits_2():
    code, out, err = run("parse", "-e", "a;;b")
    assert code == 2
    assert "error" in err


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


def test_help_lists_subcommands():
    code, out, err = run("--help")
    assert code == 0
    text = out + err
    for name in (
        "parse", "normalize", "extract", "equiv", "family-eval", "use", "apply",
        "abstract", "simulate", "computes", "compile-table", "restrict-core", "search",
    ):
        assert name in text


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
