"""Reference lengths of the shortest core programs for the ``search`` tables.

An enumerator written apart from ``iseq.compute``: it runs every program of
length up to ``CAP`` over the core instructions (``f.0/0``, ``f.1/1``,
``f.i/i`` as plain, positive and negative instructions on the in/out/aux
registers), forward jumps ``#0`` to ``#L`` and termination, and records for
each partial table the least length of a program whose induced table it is.
A program computes exactly the table it induces, so one sweep answers every
table.  Rebuild the stored copy with::

    python3 bench/search_ref.py --write
"""

from __future__ import annotations

import argparse
import itertools
import json
import os

from oracles import flat_induced

CAP = 3
# (inputs, outputs, auxiliaries) of the tables the search workload covers
CONVENTIONS = ((0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0))
REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_lengths.json")


def table_key(n: int, m: int, k: int, outputs) -> str:
    return f"{n},{m},{k}:" + ",".join("_" if o is None else o for o in outputs)


def partial_tables(n: int, m: int):
    values = [None] + ["".join(bits) for bits in itertools.product("01", repeat=m)]
    return itertools.product(values, repeat=2**n)


def alphabet(n: int, m: int, k: int, length: int) -> list:
    foci = [f"in:{i}" for i in range(1, n + 1)]
    foci += [f"out:{i}" for i in range(1, m + 1)] + [f"aux:{i}" for i in range(1, k + 1)]
    instrs = [("halt",)] + [("jump", j) for j in range(length + 1)]
    for focus in foci:
        for op in "01i":
            for sign in ("", "+", "-"):
                instrs.append(("act", sign, ("reg", focus, op, op)))
    return instrs


def shortest_lengths(n: int, m: int, k: int, cap: int = CAP) -> dict:
    """Table key -> least program length (None when longer than ``cap``)."""
    found: dict = {}
    for length in range(1, cap + 1):
        for program in itertools.product(alphabet(n, m, k, length), repeat=length):
            key = table_key(n, m, k, flat_induced(program, n, m, k))
            found.setdefault(key, length)
    return {table_key(n, m, k, t): found.get(table_key(n, m, k, t)) for t in partial_tables(n, m)}


def build() -> dict:
    lengths: dict = {}
    for conv in CONVENTIONS:
        lengths.update(shortest_lengths(*conv))
    return {"cap": CAP, "lengths": dict(sorted(lengths.items()))}


def load() -> dict:
    with open(REF_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {os.path.basename(REF_PATH)}")
    args = parser.parse_args()
    text = json.dumps(build(), indent=1) + "\n"
    if args.write:
        with open(REF_PATH, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
