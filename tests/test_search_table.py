"""Shortest core programs for small Boolean functions, and the compiler's gap.

``SHORTEST`` holds, for each of the 16 total functions of two inputs (one
output) with k = 0 and k = 1 auxiliary registers, the length of the
shortest program ``search_shortest`` finds and the length of the program
``compile_table`` builds.  ``LARGER`` holds, for 3-input majority and
parity and for the half adder (two inputs; out:1 is their sum, out:2 their
carry), all with k = 0, a length the search ran to, the shortest length if
a program of at most that length exists, and the compiled length.

The tier-1 tests recompute the rows of length at most 5, every compiled
length, and that XOR and XNOR have no program of length at most 6 with
k = 0.  ``python tests/test_search_table.py --check`` recomputes all of it
(lengths 8 for XOR and XNOR, and up to 9 for the larger functions), and
checks every program found with ``computes_check``; without arguments the
file prints the literals, searching the larger functions as far as
``LARGER`` says.
"""

import itertools
import sys

from iseq.compute import compile_table, computes_check, search_shortest
from iseq.syntax import FunctionTable, leaves

# (outputs on inputs 00, 01, 10, 11; auxiliary registers):
#     (shortest program length, compile_table length)
SHORTEST = {
    ("0000", 0): (1, 1),
    ("0001", 0): (5, 9),
    ("0010", 0): (5, 9),
    ("0011", 0): (3, 6),
    ("0100", 0): (5, 9),
    ("0101", 0): (3, 6),
    ("0110", 0): (8, 12),
    ("0111", 0): (4, 9),
    ("1000", 0): (5, 9),
    ("1001", 0): (8, 12),
    ("1010", 0): (3, 6),
    ("1011", 0): (4, 9),
    ("1100", 0): (3, 6),
    ("1101", 0): (4, 9),
    ("1110", 0): (4, 9),
    ("1111", 0): (2, 2),
    ("0000", 1): (1, 1),
    ("0001", 1): (5, 9),
    ("0010", 1): (5, 9),
    ("0011", 1): (3, 6),
    ("0100", 1): (5, 9),
    ("0101", 1): (3, 6),
    ("0110", 1): (8, 12),
    ("0111", 1): (4, 9),
    ("1000", 1): (5, 9),
    ("1001", 1): (8, 12),
    ("1010", 1): (3, 6),
    ("1011", 1): (4, 9),
    ("1100", 1): (3, 6),
    ("1101", 1): (4, 9),
    ("1110", 1): (4, 9),
    ("1111", 1): (2, 2),
}

# k = 0: (length searched to, shortest length or None if no program
# has that length or less, compile_table length)
LARGER = {
    "majority": (9, 9, 15),
    "parity": (8, None, 18),
    "half adder": (9, 9, 14),
}

# (inputs, the outputs of a row as a function of its input bits)
LARGER_RULES = {
    "majority": (3, lambda bits: str(int(bits.count("1") >= 2))),
    "parity": (3, lambda bits: str(bits.count("1") % 2)),
    "half adder": (2, lambda bits: f"{bits.count('1') % 2}{int(bits == '11')}"),
}


def two_input(column):
    return FunctionTable(2, 1, tuple(column))


def larger(name):
    n, rule = LARGER_RULES[name]
    outputs = tuple(rule("".join(bits)) for bits in itertools.product("01", repeat=n))
    return FunctionTable(n, len(outputs[0]), outputs)


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
    for name, (_, _, compiled) in LARGER.items():
        assert len(leaves(compile_table(larger(name)))) == compiled


def test_shortest_lengths_are_at_most_the_compiled_ones():
    """The search finds no program longer than the compiled one; where it
    found none, it searched to a length below the compiled one."""
    for length, compiled in SHORTEST.values():
        assert length <= compiled
    for searched, length, compiled in LARGER.values():
        assert length <= compiled if length is not None else searched < compiled


def check_all():
    """Recompute every entry, the expensive ones included."""
    for (column, k), (length, _) in SHORTEST.items():
        assert shortest_length(two_input(column), k, length) == length, (column, k)
    for name, (searched, length, _) in LARGER.items():
        assert shortest_length(larger(name), 0, searched) == length, name
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
    print("LARGER = {")
    for name, (searched, _, _) in LARGER.items():
        table = larger(name)
        length = shortest_length(table, 0, searched)
        print(f'    "{name}": ({searched}, {length}, {len(leaves(compile_table(table)))}),')
    print("}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        check_all()
        print("search table: all entries recomputed and equal")
    else:
        print_literals()
