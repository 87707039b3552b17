"""Shortest core programs for small Boolean functions, and the compiler's gap.

``SHORTEST`` holds, for each of the 16 total functions of two inputs (one
output) with k = 0 and k = 1 auxiliary registers, the length of the
shortest program ``search_shortest`` finds and the length of the program
``compile_table`` builds.  ``THREE_INPUT`` holds, for 3-input majority and
parity with k = 0, a length up to which no program exists and the length
of the compiled program.

The tier-1 tests recompute the rows of length at most 5, every compiled
length, and that XOR and XNOR have no program of length at most 6 with
k = 0.  ``python tests/test_search_table.py --check`` recomputes all of it
(lengths 8 for XOR and XNOR, and the 3-input bounds); without arguments
the file prints the literals.
"""

import itertools
import sys

from iseq.compute import compile_table, computes_check, search_shortest
from iseq.syntax import FunctionTable, leaves

# (outputs on inputs 00, 01, 10, 11; auxiliary registers):
#     (shortest program length, compile_table length)
SHORTEST = {
    ("0000", 0): (1, 13),
    ("0001", 0): (5, 14),
    ("0010", 0): (5, 14),
    ("0011", 0): (3, 15),
    ("0100", 0): (5, 14),
    ("0101", 0): (3, 15),
    ("0110", 0): (8, 15),
    ("0111", 0): (4, 16),
    ("1000", 0): (5, 14),
    ("1001", 0): (8, 15),
    ("1010", 0): (3, 15),
    ("1011", 0): (4, 16),
    ("1100", 0): (3, 15),
    ("1101", 0): (4, 16),
    ("1110", 0): (4, 16),
    ("1111", 0): (2, 17),
    ("0000", 1): (1, 13),
    ("0001", 1): (5, 14),
    ("0010", 1): (5, 14),
    ("0011", 1): (3, 15),
    ("0100", 1): (5, 14),
    ("0101", 1): (3, 15),
    ("0110", 1): (8, 15),
    ("0111", 1): (4, 16),
    ("1000", 1): (5, 14),
    ("1001", 1): (8, 15),
    ("1010", 1): (3, 15),
    ("1011", 1): (4, 16),
    ("1100", 1): (3, 15),
    ("1101", 1): (4, 16),
    ("1110", 1): (4, 16),
    ("1111", 1): (2, 17),
}

# three inputs, k = 0: (no program has this length or less, compile_table length)
THREE_INPUT = {
    "majority": (6, 33),
    "parity": (6, 33),
}

THREE_INPUT_RULES = {
    "majority": lambda bits: bits.count("1") >= 2,
    "parity": lambda bits: bits.count("1") % 2 == 1,
}
NONE_UP_TO = 6  # the length the printer searches the 3-input functions to


def two_input(column):
    return FunctionTable(2, 1, tuple(column))


def three_input(name):
    rows = ("".join(bits) for bits in itertools.product("01", repeat=3))
    rule = THREE_INPUT_RULES[name]
    return FunctionTable(3, 1, tuple("1" if rule(bits) else "0" for bits in rows))


def shortest_length(table, k, max_len):
    """Length of the least program up to ``max_len``, checked, or None."""
    found = search_shortest(table, k, max_len)
    if found is None:
        return None
    assert computes_check(found, table, k)
    return len(leaves(found))


CHEAP = [key for key, (length, _) in SHORTEST.items() if length <= 5]


def pytest_generate_tests(metafunc):
    """One ``test_shortest_lengths_up_to_5`` case per CHEAP row; a hook
    rather than a marker, so that ``--check`` runs without pytest."""
    if metafunc.function is test_shortest_lengths_up_to_5:
        metafunc.parametrize("column, k", CHEAP)


def test_shortest_lengths_up_to_5(column, k):
    length, _ = SHORTEST[column, k]
    assert shortest_length(two_input(column), k, length) == length


def test_xor_and_xnor_have_no_program_up_to_length_6():
    for column in ("0110", "1001"):
        assert SHORTEST[column, 0][0] > 6
        assert search_shortest(two_input(column), 0, 6) is None


def test_compiled_lengths():
    for (column, _), (_, compiled) in SHORTEST.items():
        assert len(leaves(compile_table(two_input(column)))) == compiled
    for name, (_, compiled) in THREE_INPUT.items():
        assert len(leaves(compile_table(three_input(name)))) == compiled


def check_all():
    """Recompute every entry, the expensive ones included."""
    for (column, k), (length, _) in SHORTEST.items():
        assert shortest_length(two_input(column), k, length) == length, (column, k)
    for name, (bound, _) in THREE_INPUT.items():
        assert search_shortest(three_input(name), 0, bound) is None, name
    test_compiled_lengths()


def print_literals():
    print("SHORTEST = {")
    for k in (0, 1):
        for column in ("".join(bits) for bits in itertools.product("01", repeat=4)):
            table = two_input(column)
            length = shortest_length(table, k, 40)
            print(f'    ("{column}", {k}): ({length}, {len(leaves(compile_table(table)))}),')
    print("}")
    print()
    print("THREE_INPUT = {")
    for name in THREE_INPUT_RULES:
        table = three_input(name)
        assert search_shortest(table, 0, NONE_UP_TO) is None, name
        print(f'    "{name}": ({NONE_UP_TO}, {len(leaves(compile_table(table)))}),')
    print("}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        check_all()
        print("search table: all entries recomputed and equal")
    else:
        print_literals()
