"""The frontier walk of ``search_shortest`` against the full enumeration.

``oracles.search_shortest`` is the enumeration of every program of each
length that the walk replaced.  Scope, each with k = 0, 1 and 2
auxiliary registers: the 16 total functions of two inputs, the 9 partial
tables of one input and the 3 of no input (one output), and the 5 of no
input with two outputs; 99 cases of table and k.  With k = 2 the walk
tries only aux:1 at length 1.  Every budget ``max_len`` from 0
to 3 is compared, 396 cases: the enumeration's answer at 3 gives the
answer at every smaller budget, since it is the first program of least
length.  Tables with no output registers, where the enumeration demanded
more than ``computes_check`` does, are checked on their own.
"""

import itertools
import time

import pytest

from iseq.cli import run_command
from iseq.compute import (
    IoConvention,
    SearchBudgetExceeded,
    _search_alphabets,
    computes_check,
    search_shortest,
)
from iseq.syntax import FunctionTable, leaves, render_term

from . import oracles

XOR = FunctionTable(2, 1, ("0", "1", "1", "0"))

# (inputs, outputs, total functions only)
SCOPE = ((2, 1, True), (1, 1, False), (0, 1, False), (0, 2, False))


def _tables(n, m, total):
    values = [] if total else [None]
    values += ["".join(bits) for bits in itertools.product("01", repeat=m)]
    return [FunctionTable(n, m, outputs) for outputs in itertools.product(values, repeat=2**n)]


@pytest.mark.parametrize("k", (0, 1, 2))
def test_search_matches_enumeration_up_to_length_3(k):
    cases = 0
    for n, m, total in SCOPE:
        for table in _tables(n, m, total):
            least = oracles.search_shortest(table, k, 3)
            for max_len in range(4):
                want = least if least is not None and len(leaves(least)) <= max_len else None
                assert search_shortest(table, k, max_len) == want, (table, k, max_len)
                cases += 1
    assert cases == 132


@pytest.mark.parametrize("k", (0, 1, 2, 5, 10**9))
def test_search_tries_as_many_aux_registers_as_positions(monkeypatch, k):
    """A program of L positions names at most L auxiliary registers, so at
    length L the walk tries aux:1 to aux:min(k, L), and no more or fewer:
    the register slots of each length's decoded alphabet are in:1, in:2,
    out:1 (slots 0 to 2), then one per auxiliary register tried."""
    tried = []

    def alphabets(n, m, k):
        for alphabet, code in _search_alphabets(n, m, k):
            tried.append(sorted({op[0] for op in code if type(op) is tuple}))
            yield alphabet, code

    monkeypatch.setattr("iseq.compute._search_alphabets", alphabets)
    assert search_shortest(XOR, k, 3) is None  # so every length is walked
    assert tried == [list(range(3 + min(k, length))) for length in (1, 2, 3)]


def test_search_with_a_billion_aux_registers_answers_as_with_max_len_of_them(tmp_path):
    """``--aux 1000000000 --max-len 2`` answers as ``--aux 2`` does, and
    ``--aux 1000000000 --max-len 1000000000`` as ``--aux 1 --max-len 1``
    where ``!`` is the answer, within a second; nine candidate instructions
    for each of a billion registers would not fit in memory."""
    table = tmp_path / "t.tbl"
    start = time.perf_counter()
    for text in ("inputs 1 outputs 1\n0 -> 0\n1 -> 1\n", "inputs 0 outputs 1\n -> 1\n"):
        table.write_text(text)
        argv = ["search", "--table", str(table), "--max-len", "2", "--aux"]
        assert run_command([*argv, "1000000000"]) == run_command([*argv, "2"])
    table.write_text("inputs 1 outputs 1\n0 -> 0\n1 -> 0\n")
    argv = ["search", "--table", str(table), "--max-len"]
    assert run_command([*argv, "1000000000", "--aux", "1000000000"]) == run_command([*argv, "1", "--aux", "1"])
    assert run_command([*argv, "1", "--aux", "1"]) == (0, "!\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", (0, 1, 2))
def test_zero_output_tables_are_computed_by_halt(n):
    """With no outputs both row conditions ask for the empty family, which
    every program yields, so ``!`` is the least program."""
    for outputs in itertools.product(("", None), repeat=2**n):
        table = FunctionTable(n, 0, outputs)
        for k in (0, 1):
            assert search_shortest(table, k, 0) is None
            found = search_shortest(table, k, 3)
            assert render_term(found) == "!"
            assert computes_check(found, table, k)


def test_memo_expands_far_fewer_frontiers_than_the_enumeration_runs():
    # no XOR program has length <= 5; the enumeration runs 34**5 programs
    # of length 5 alone, and the walk expands fewer than 34**2 frontiers
    alphabet = len(oracles.search_alphabet(IoConvention(2, 1, 0), 5))
    assert alphabet == 34
    start = time.perf_counter()
    assert search_shortest(XOR, 0, 5, max_nodes=alphabet**2) is None
    assert time.perf_counter() - start < 1.0  # the enumeration took 51 s


def test_node_budget_names_the_last_length_searched_in_full():
    # the walk expands 74 XOR frontiers up to length 5 and 282 up to
    # length 6, so a budget of 100 runs out within length 6
    with pytest.raises(SearchBudgetExceeded, match="no program of length 5 or less"):
        search_shortest(XOR, 0, 40, max_nodes=100)
    assert issubclass(SearchBudgetExceeded, ValueError)
    with pytest.raises(ValueError, match="max_nodes"):
        search_shortest(XOR, 0, 3, max_nodes=-1)
    # out:1.1/1;! is found after expanding three frontiers: the start of
    # each length and the one after out:1.1/1.  The one after #1 is not
    # expanded: its row stands one position from the end with one wrong
    # output bit, which needs a write and a ``!``
    const_true = FunctionTable(0, 1, ("1",))
    assert render_term(search_shortest(const_true, 0, 5, max_nodes=3)) == "out:1.1/1;!"
    with pytest.raises(SearchBudgetExceeded, match="length 1 or less"):
        search_shortest(const_true, 0, 5, max_nodes=2)


@pytest.mark.parametrize("k", (0, 1))
def test_conflict_rule_changes_no_answer(k):
    """The walk against a copy of it without the rule that two unfinished
    rows in one state must want one result: every one-output partial table
    of one input (9) and of two inputs (81), each searched up to length 5,
    90 cases per k and 180 in all.  Both give the same program or None, and
    the walk with the rule expands no more frontiers than the copy."""
    cases = 0
    for n in (1, 2):
        for outputs in itertools.product((None, "0", "1"), repeat=2**n):
            table = FunctionTable(n, 1, outputs)
            want, expanded = oracles.search_without_conflicts(table, k, 5)
            assert search_shortest(table, k, 5, max_nodes=expanded) == want, table
            cases += 1
    assert cases == 90


@pytest.mark.parametrize(
    "outputs, max_len, program, expanded, without_rule",
    [
        # in:1.0/0, for one, puts the identity's two rows, which want 0
        # and 1, in one state
        (("0", "1"), 3, "+in:1.i/i;out:1.1/1;!", 6, 8),
        # a rule that compared registers alone, not positions, would drop
        # one of these 23 frontiers and expand 22
        ((None, "1", None, "0"), 4, "-in:1.i/i;out:1.1/1;+in:2.i/i;!", 23, 49),
    ],
)
def test_rows_in_one_state_that_want_different_results_kill_the_prefix(
    outputs, max_len, program, expanded, without_rule
):
    """The walk drops a prefix where it puts two unfinished rows that want
    different results in one state; rows with equal registers parked at
    different positions run on differently and are kept.  Pinned: the
    frontiers the walk expands up to ``max_len``, and those the walk
    without the rule expands."""
    table = FunctionTable(len(outputs).bit_length() - 1, 1, outputs)
    found = search_shortest(table, 0, max_len, max_nodes=expanded)
    assert render_term(found) == program
    with pytest.raises(SearchBudgetExceeded, match=f"length {max_len - 1} or less"):
        search_shortest(table, 0, max_len, max_nodes=expanded - 1)
    assert oracles.search_without_conflicts(table, 0, max_len) == (found, without_rule)


def test_inaction_before_the_end():
    # #0 leaves a row inactive where it stands, unlike any jump; these are
    # the enumeration's answers at max_len 4, which take it about 2 s
    assert render_term(search_shortest(FunctionTable(2, 1, (None, None, None, "0")), 0, 4)) == (
        "+in:1.i/i;-in:2.i/i;#0;!"
    )
    assert render_term(search_shortest(FunctionTable(2, 1, (None, "0", None, None)), 0, 4)) == (
        "+in:1.i/i;#0;+in:2.i/i;!"
    )

