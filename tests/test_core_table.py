"""The core-block table of ``restrict_to_core``, rebuilt by brute force.

Every body of one to four slots over the eleven block tokens (the nine core
instructions on one register, and the exits ``>1`` and ``>2``) is run from
its first slot, and from its second, on both register contents: 16,104
bodies.  For each of the 16 behaviours an instruction can have and each
landing class, the shortest body with that behaviour, first in token order,
must be the committed entry; an entry is None when a body of another class
is no longer and fits wherever it fits.  Running this file prints the table
literal.
"""

import itertools

from iseq.compute import _CORE_BLOCKS

TOKENS = [kind + op for op in "01i" for kind in ("", "+", "-")] + [">1", ">2"]
FUNCS = {"0": lambda b: False, "1": lambda b: True, "i": lambda b: b, "c": lambda b: not b}
TOKEN_OF = {(f(False), f(True)): token for token, f in FUNCS.items()}


def _run(body, slot, bit):
    """(content, step, landed): the step 1 or 2 the block exits by, and
    whether it got there by skipping off its last slot."""
    while slot < len(body):
        token = body[slot]
        if token[0] == ">":
            return bit, int(token[1]), False
        kind = token[:-1]
        bit = FUNCS[token[-1]](bit)  # a core form replies what it writes
        slot += 1 if kind == "" or bit == (kind == "+") else 2
    landed = slot > len(body)
    return bit, 1 + landed, landed


def build_table():
    """Blocks keyed by (content after 0, content after 1, step on 0, step on 1)."""
    shortest = {}
    for length in range(1, 5):
        for body in itertools.product(TOKENS, repeat=length):
            (e0, s0, landed0), (e1, s1, landed1) = (_run(body, 0, bit) for bit in (False, True))
            offers = length == 1 or all(
                _run(body, 1, bit) == (bit, 1, False) for bit in (False, True)
            )
            cls = 2 * (landed0 or landed1) + offers
            shortest.setdefault(((e0, e1, s0, s1), cls), " ".join(body))
    table = {}
    for behaviour in itertools.product((False, True), (False, True), (1, 2), (1, 2)):
        entries = [shortest.get((behaviour, cls)) for cls in range(4)]

        def dominated(cls):
            return any(
                other != cls
                and entries[other] is not None
                and len(entries[other].split()) <= len(entries[cls].split())
                and other >> 1 <= cls >> 1
                and other & 1 >= cls & 1
                for other in range(4)
            )

        table[behaviour] = tuple(
            None if entry is None or dominated(cls) else entry
            for cls, entry in enumerate(entries)
        )
    return table


def test_core_block_table_matches_brute_force():
    assert build_table() == _CORE_BLOCKS


if __name__ == "__main__":
    for (e0, e1, s0, s1), entries in build_table().items():
        form = f"+{TOKEN_OF[s0 == 1, s1 == 1]}/{TOKEN_OF[e0, e1]}"
        print(f"    {(e0, e1, s0, s1)!r}: {entries!r},  # {form}".replace("'", '"'))
