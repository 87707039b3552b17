"""Command-line front end.

Verdict subcommands (equiv, computes) exit 0 for true and 1 for false;
search exits 1 when no program fits the length budget, and 2 when its node
budget runs out first; errors exit 2.
All output is a pure function of the inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import canonical, compute, extraction, interaction, registers, syntax, threads


class _CliError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc


def _expr_texts(args) -> list[str]:
    texts = list(args.expr or [])
    for path in args.file or []:
        texts.append(_read_text(path).strip())
    return texts


def _one_text(args, kind: str) -> str:
    texts = _expr_texts(args)
    if len(texts) != 1:
        raise _CliError(f"expected exactly one {kind} (-e/--file)")
    return texts[0]


def _term_argument(args) -> syntax.InstructionSequenceTerm:
    return syntax.parse_instruction_sequence(_one_text(args, "term"))


def _family_argument(args) -> registers.RegisterFamily:
    text = args.family
    if args.family_file:
        text = _read_text(args.family_file).strip()
    if text is None:
        text = "{}"
    return registers._read(text)


def _table_argument(args) -> syntax.FunctionTable:
    return syntax.parse_function_table(_read_text(args.table))


def _convention(args) -> compute.IoConvention:
    return compute.IoConvention(args.inputs, args.outputs, args.aux)


def _add_term_options(parser, count_hint="a term"):
    parser.add_argument("-e", "--expr", action="append", metavar="TERM", help=f"{count_hint} in source syntax")
    parser.add_argument("--file", action="append", metavar="PATH", help="file containing a term")


def _add_family_options(parser):
    parser.add_argument("-f", "--family", metavar="FAMILY", help="register family, e.g. '{aux:1=0}'")
    parser.add_argument("--family-file", metavar="PATH", help="file containing a register family")


# Each subcommand's handler takes the parsed arguments and returns
# (exit code, output line); build_parser attaches it as ``run``.
def _verdict(verdict: bool) -> tuple[int, str]:
    return (0, "true") if verdict else (1, "false")


def _normalize(args) -> tuple[int, str]:
    to_form = canonical.to_second_canonical if args.form == "second" else canonical.to_first_canonical
    return 0, syntax.render_term(canonical.term_of_canonical(to_form(_term_argument(args))))


def _equiv(args) -> tuple[int, str]:
    texts = _expr_texts(args)
    if len(texts) != 2:
        raise _CliError("equiv needs exactly two terms")
    t1, t2 = map(syntax.parse_instruction_sequence, texts)
    decide = {
        "isc": canonical.instruction_sequence_congruent,
        "structural": canonical.structurally_congruent,
        "behavioural": extraction.behaviourally_equivalent,
        "congruence": extraction.behaviourally_congruent,
        "functional": lambda t1, t2: compute.functionally_equivalent(t1, t2, _convention(args)),
    }[args.relation]
    return _verdict(decide(t1, t2))


def _abstract(args) -> tuple[int, str]:
    thread = extraction.extract(_term_argument(args))
    if args.family or args.family_file:
        thread = interaction.use(thread, _family_argument(args))
    return 0, threads.render_thread(interaction.abstract_tau(thread))


def _simulate(args) -> tuple[int, str]:
    outcome, family = interaction.simulate(_term_argument(args), _family_argument(args), args.fuel)
    return 0, f"{outcome.value} {registers.render_family(family)}"


def _search(args) -> tuple[int, str]:
    result = compute.search_shortest(_table_argument(args), args.aux, args.max_len, args.max_nodes)
    return (1, "none") if result is None else (0, syntax.render_term(result))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iseq",
        description="Workbench for single-pass instruction sequences over Boolean registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term and print its canonical rendering")
    _add_term_options(p)
    p.set_defaults(run=lambda args: (0, syntax.render_term(_term_argument(args))))

    p = sub.add_parser("normalize", help="print a canonical form of a term")
    _add_term_options(p)
    p.add_argument("--form", choices=("isc", "first", "second"), default="second")
    p.set_defaults(run=_normalize)

    p = sub.add_parser("extract", help="print the behaviour of a term as recursion equations")
    _add_term_options(p)
    p.set_defaults(run=lambda args: (0, threads.render_thread(extraction.extract(_term_argument(args)))))

    p = sub.add_parser("equiv", help="decide an equivalence between two terms")
    _add_term_options(p, "each of the two terms")
    p.add_argument(
        "--relation",
        choices=("isc", "structural", "behavioural", "congruence", "functional"),
        required=True,
    )
    p.add_argument("--inputs", type=int, default=0, help="input registers (functional relation)")
    p.add_argument("--outputs", type=int, default=0, help="output registers (functional relation)")
    p.add_argument("--aux", type=int, default=0, help="auxiliary registers (functional relation)")
    p.set_defaults(run=_equiv)

    p = sub.add_parser("family-eval", help="evaluate a register family term")
    p.add_argument("-e", "--expr", action="append", metavar="FAMILY")
    p.add_argument("--file", action="append", metavar="PATH")
    p.set_defaults(run=lambda args: (0, registers.render_family(registers._read(_one_text(args, "family")))))

    p = sub.add_parser("use", help="run a term's behaviour against a register family")
    _add_term_options(p)
    _add_family_options(p)
    p.set_defaults(run=lambda args: (0, threads.render_thread(
        interaction.use(extraction.extract(_term_argument(args)), _family_argument(args)))))

    p = sub.add_parser("apply", help="final register family after running a term")
    _add_term_options(p)
    _add_family_options(p)
    p.set_defaults(run=lambda args: (0, registers.render_family(
        interaction.apply(extraction.extract(_term_argument(args)), _family_argument(args)))))

    p = sub.add_parser("abstract", help="behaviour with internal steps concealed")
    _add_term_options(p)
    _add_family_options(p)
    p.set_defaults(run=_abstract)

    p = sub.add_parser("simulate", help="step a term directly on a register family")
    _add_term_options(p)
    _add_family_options(p)
    p.add_argument("--fuel", type=int, default=1000)
    p.set_defaults(run=_simulate)

    p = sub.add_parser("computes", help="check that a program computes a function table")
    _add_term_options(p)
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--aux", type=int, default=0)
    p.set_defaults(run=lambda args: _verdict(
        compute.computes_check(_term_argument(args), _table_argument(args), args.aux)))

    p = sub.add_parser("compile-table", help="compile a function table to a core-only program")
    p.add_argument("--table", required=True, metavar="PATH")
    p.set_defaults(run=lambda args: (0, syntax.render_term(compute.compile_table(_table_argument(args)))))

    p = sub.add_parser("restrict-core", help="translate a program to core instructions only")
    _add_term_options(p)
    p.add_argument("--inputs", type=int, default=0)
    p.add_argument("--outputs", type=int, default=0)
    p.add_argument("--aux", type=int, default=0)
    p.set_defaults(run=lambda args: (0, syntax.render_term(
        compute.restrict_to_core(_term_argument(args), _convention(args)))))

    p = sub.add_parser("search", help="shortest program computing a function table")
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--aux", type=int, default=0)
    p.add_argument(
        "--max-nodes",
        type=int,
        default=compute.DEFAULT_MAX_NODES,
        help="frontier nodes the search may expand before it gives up with exit 2 "
        f"(default {compute.DEFAULT_MAX_NODES}); each is kept until the search ends, "
        "and using up the default on 3-input parity took peak memory from 16 to 65 MB",
    )
    p.set_defaults(run=_search)

    return parser


# parse_args leaves the parser unchanged, so one instance serves every call
_shared_parser = functools.cache(build_parser)


_VALUE_OPTIONS = {
    "-e", "--expr", "--file", "-f", "--family", "--family-file", "--table",
    "--form", "--relation", "--fuel", "--aux", "--inputs", "--outputs",
    "--max-len", "--max-nodes",
}


def _join_option_values(argv: Sequence[str]) -> list[str]:
    """Turn ``-e -a;!`` into ``-e=-a;!`` so terms may start with a dash."""
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def run_command(argv: Sequence[str]) -> tuple[int, str, str]:
    """Run one invocation; returns (exit code, stdout text, stderr text)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _shared_parser().parse_args(_join_option_values(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), out.getvalue(), err.getvalue()
    try:
        code, line = args.run(args)
    except (_CliError, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    return code, f"{line}\n", ""


def main() -> None:
    code, out, err = run_command(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    sys.exit(code)


if __name__ == "__main__":
    main()
