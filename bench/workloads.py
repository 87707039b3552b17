"""The four seeded workloads, as fixed lists of operations on ``iseq``.

Each builder takes the freshly imported ``iseq`` package, the seed and a
scratch directory, and returns the operation list of one pass.  Inputs are
made by the benchmark's own generators (tuples, see :mod:`oracles`) and
handed to ``iseq`` as source text; every operation carries a check that
judges its result with the oracles or with a verdict known by construction,
never against a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles as orc
import search_ref


@dataclass
class Op:
    kind: str  # what the operation does, e.g. "congruence-eq"
    size: int  # input size in positions (large-terms); 0 elsewhere
    call: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# term generators (benchmark representation)

ACTIONS = ("a", "b", "c", "d")
OPS = ("0", "1", "i", "c")


def rand_act(rng: random.Random):
    return ("act", rng.choice(("", "+", "-")), ("abs", rng.choice(ACTIONS)))


def rand_reg_act(rng: random.Random, foci):
    reply, effect = rng.choice(OPS), rng.choice(OPS)
    return ("act", rng.choice(("", "+", "-")), ("reg", rng.choice(foci), reply, effect))


def rand_instrs(rng: random.Random, count: int, act, max_jump: int, jump_p=0.15, halt_p=0.04):
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < jump_p:
            out.append(("jump", rng.randint(0, max_jump)))
        elif roll < jump_p + halt_p:
            out.append(("halt",))
        else:
            out.append(act(rng))
    return out


def group(rng: random.Random, items: list) -> list:
    """Items regrouped into random parenthesized runs (same sequence)."""
    out, i = [], 0
    while i < len(items):
        width = rng.randint(1, 6)
        chunk = items[i : i + width]
        out.append(chunk[0] if len(chunk) == 1 else ("seq", chunk))
        i += width
    return out


def term_of(rng: random.Random, prefix: list, period: list):
    """A term denoting ``prefix + period^omega``, with random grouping."""
    items = group(rng, prefix)
    if period:
        body = group(rng, period)
        items.append(("rep", body[0] if len(body) == 1 else ("seq", body)))
    return items[0] if len(items) == 1 else ("seq", items)


def variant_of(rng: random.Random, prefix: list, period: list):
    """A differently built term for the same instruction sequence."""
    if len(period) > 1:
        r = rng.randint(1, len(period) - 1)
        prefix, period = prefix + period[:r], period[r:] + period[:r]
    elif period:
        prefix = prefix + period  # unfold once
    return term_of(rng, prefix, period)


def reachable_actions(unf: orc.Unfolding) -> list[int]:
    """Stored positions holding an action that some reply sequence reaches."""
    seen, todo, acts = set(), [1], []
    while todo:
        w = unf.wrap(todo.pop())
        if w is None or w in seen:
            continue
        seen.add(w)
        ins = unf.at(w)
        if ins[0] == "act":
            acts.append(w)
            todo.extend((w + 1, w + 2) if ins[1] else (w + 1,))
        elif ins[0] == "jump" and ins[1]:
            todo.append(w + ins[1])
    return sorted(acts)


def mutant_of(rng: random.Random, prefix: list, period: list):
    """The term with a reachable action replaced by a fresh one, ``z``.

    The original never performs ``z`` and the mutant does on some reply
    sequence, so the two are not behaviourally equivalent, hence neither
    congruent nor structurally congruent.
    """
    acts = reachable_actions(orc.Unfolding(prefix, period))
    # from the middle tenth: how far refinement must propagate the change
    # depends on where it is, and a steady pass time needs a steady distance
    pos = rng.choice(acts[int(len(acts) * 0.45) : int(len(acts) * 0.55) + 1])
    prefix, period = list(prefix), list(period)
    seq, idx = (prefix, pos - 1) if pos <= len(prefix) else (period, pos - len(prefix) - 1)
    seq[idx] = ("act", seq[idx][1], ("abs", "z"))
    return term_of(rng, prefix, period)


def rand_small_term(rng: random.Random, act, count: int):
    """Term of ``count`` instructions, maybe repeating, starting with an action."""
    instrs = [act(rng)] + rand_instrs(rng, count - 1, act, max_jump=4)
    cut = rng.randint(1, count)
    return instrs[:cut], instrs[cut:] if rng.random() < 0.6 else []


# ---------------------------------------------------------------------------
# checks shared by several workloads


def own_instr(obj):
    """Benchmark tuple for an ``iseq`` primitive instruction, by its fields."""
    kind = type(obj).__name__
    if kind == "Halt":
        return ("halt",)
    if kind == "Jump":
        return ("jump", obj.offset)
    sign = {"Plain": "", "PosTest": "+", "NegTest": "-"}[kind]
    b = obj.basic
    if type(b).__name__ == "AbstractAction":
        return ("act", sign, ("abs", b.name))
    focus = b.focus.name if b.focus.index is None else f"{b.focus.name}:{b.focus.index}"
    return ("act", sign, ("reg", focus, b.reply.value, b.effect.value))


def own_leaves(term) -> list:
    """Instructions of a repetition-free ``iseq`` term, read by its fields."""
    out, stack = [], [term]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "Concat":
            stack.extend((node.right, node.left))
        elif type(node).__name__ == "Repeat":
            raise ValueError("program has a repeating part")
        else:
            out.append(own_instr(node))
    return out


def reply_seqs(rng: random.Random, count: int, length: int) -> list[list[bool]]:
    return [[rng.random() < 0.5 for _ in range(length)] for _ in range(count)]


def same_traces(unf: orc.Unfolding, other, replies, family=None, hide_tau=False) -> bool:
    """Equal runs of the unfolding and ``other`` on every reply sequence.

    ``other`` is an unfolding or a thread state table.
    """
    for seq in replies:
        want = orc.step_term(unf, seq, family, len(seq), hide_tau)
        if isinstance(other, orc.Unfolding):
            got = orc.step_term(other, seq, family, len(seq), hide_tau)
        else:
            got = orc.step_thread(other, seq, len(seq))
        if got != want:
            return False
    return True


def no_chained_jumps(unf: orc.Unfolding) -> bool:
    """A second canonical form never jumps onto a jump."""
    for pos in range(1, unf.size + 1):
        ins = unf.at(pos)
        if ins[0] == "jump" and ins[1]:
            target = unf.at(pos + ins[1])
            if target is not None and target[0] == "jump":
                return False
    return True


def canonical_unfolding(canon) -> orc.Unfolding:
    return orc.Unfolding([own_instr(i) for i in canon.prefix], [own_instr(i) for i in canon.period])


def own_compile(outputs: tuple, n: int, m: int, sign: str = "-") -> list:
    """Decision-tree program for a table: 3 slots per tree node, then leaves.

    A node tests its input with ``sign`` and proceeds on 0 (``-``) or 1 (``+``).
    """
    inner = 2**n - 1
    leaves = []
    for out in outputs:
        if out is None:
            leaves.append([("jump", 0)])
        else:
            sets = [("act", "", ("reg", f"out:{i}", "1", "1")) for i, b in enumerate(out, 1) if b == "1"]
            leaves.append(sets + [("halt",)])
    leaf_start, pos = [], 3 * inner + 1
    for leaf in leaves:
        leaf_start.append(pos)
        pos += len(leaf)
    instrs = []
    for depth in range(n):
        for v in range(2**depth):
            slot = 3 * (2**depth - 1 + v) + 1
            instrs.append(("act", sign, ("reg", f"in:{depth + 1}", "i", "i")))
            first = 0 if sign == "-" else 1
            for bit, at in ((first, slot + 1), (1 - first, slot + 2)):
                child = 2 * v + bit
                target = leaf_start[child] if depth + 1 == n else 3 * (2 ** (depth + 1) - 1 + child) + 1
                instrs.append(("jump", target - at))
    for leaf in leaves:
        instrs.extend(leaf)
    return instrs


def rand_table(rng: random.Random, n: int, m: int, undefined_p=0.25) -> tuple:
    return tuple(
        None if rng.random() < undefined_p else "".join(rng.choice("01") for _ in range(m))
        for _ in range(2**n)
    )


def mutate_last_row(rng: random.Random, outputs: tuple, m: int) -> tuple:
    """The table with its last row changed (a full scan to find the difference)."""
    last = outputs[-1]
    if last is None:
        new = "".join(rng.choice("01") for _ in range(m))
    else:
        i = rng.randrange(m)
        new = last[:i] + ("1" if last[i] == "0" else "0") + last[i + 1 :]
    return outputs[:-1] + (new,)


def table_text(n: int, m: int, outputs: tuple) -> str:
    lines = [f"inputs {n} outputs {m}"]
    for v, out in enumerate(outputs):
        lines.append(f"{format(v, f'0{n}b') if n else ''} -> {'_' if out is None else out}")
    return "\n".join(lines) + "\n"


def program_text(instrs: list) -> str:
    return ";".join(orc.instr_text(i) for i in instrs)


def rand_program(rng: random.Random, n: int, m: int, k: int, length: int) -> list:
    foci = [f"in:{i}" for i in range(1, n + 1)] + [f"out:{i}" for i in range(1, m + 1)]
    foci += [f"aux:{i}" for i in range(1, k + 1)]
    return rand_instrs(rng, length, lambda r: rand_reg_act(r, foci), max_jump=4, jump_p=0.12, halt_p=0.12)


def program_ok(instrs: list, n: int, m: int, k: int, want: tuple, length=None) -> bool:
    """Core-only, inducing ``want``, and of the given length if one is given."""
    return (
        orc.is_core_program(instrs, n, m, k)
        and orc.flat_induced(instrs, n, m, k) == want
        and (length is None or len(instrs) == length)
    )


# ---------------------------------------------------------------------------
# large-terms

SIZES = (125, 250, 500, 1000)
TERMS_PER_SIZE = {125: 4, 250: 3, 500: 2, 1000: 2}


def chain_term(rng: random.Random, n: int):
    """Under a repetition: runs of ``#1`` of 1 to n/10 and hops of ``#2``
    over actions, every jump landing on a jump until the chain ends.  The
    lengths cycle, only the actions are drawn: resolving a chain costs its
    length squared, so drawn lengths would make the pass time a lottery."""
    runs = itertools.cycle((1, max(1, n // 40), max(1, n // 20), max(1, n // 10)))
    body = [rand_act(rng)]
    while len(body) < n:
        body += [("jump", 1)] * next(runs) + [rand_act(rng)]
        body += [("jump", 2), rand_act(rng), ("jump", 2), rand_act(rng), rand_act(rng)]
    return [], body[:n]


def block_term(rng: random.Random, n: int):
    """Runs of ``+a;#2;b`` blocks, finite."""
    body = []
    while len(body) < n - 1:
        body += [("act", "+", ("abs", rng.choice(ACTIONS))), ("jump", 2), ("act", "", ("abs", rng.choice(ACTIONS)))]
    return body[: n - 1] + [("halt",)], []


def aperiodic_term(rng: random.Random, n: int):
    """A random body of ``n`` instructions under a repetition."""
    return [], [rand_act(rng)] + rand_instrs(rng, n - 1, rand_act, max_jump=4, halt_p=0.02)


def random_term(rng: random.Random, n: int):
    """Random instructions, a third of them before a repeating part."""
    cut = n // 3
    instrs = [rand_act(rng)] + rand_instrs(rng, n - 1, rand_act, max_jump=5)
    return instrs[:cut], instrs[cut:]


FAMILIES = (chain_term, block_term, aperiodic_term, random_term)


def large_terms(iseq, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    parse = iseq.parse_instruction_sequence
    ops: list[Op] = []
    for size in SIZES:
        for family in FAMILIES:
            for _ in range(TERMS_PER_SIZE[size]):
                prefix, period = family(rng, size)
                unf = orc.Unfolding(prefix, period)
                t = parse(orc.render(term_of(rng, prefix, period)))
                v = parse(orc.render(variant_of(rng, prefix, period)))
                u = parse(orc.render(mutant_of(rng, prefix, period)))
                replies = reply_seqs(rng, 3, 2 * size + 20)
                ops += _decider_ops(iseq, size, t, v, u)
                ops.append(
                    Op("normalize", size, lambda t=t: iseq.to_second_canonical(t),
                       lambda c, unf=unf, r=replies: no_chained_jumps(canonical_unfolding(c))
                       and same_traces(unf, canonical_unfolding(c), r))
                )
                ops.append(
                    Op("extract", size, lambda t=t: iseq.extract(t),
                       lambda th, unf=unf, r=replies: same_traces(unf, orc.thread_table(th), r))
                )
    return ops


def _decider_ops(iseq, size: int, t, v, u) -> list[Op]:
    ops = []
    for name in ("structurally_congruent", "behaviourally_equivalent", "behaviourally_congruent"):
        kind = name.split("_")[0]
        for other, want, tag in ((v, True, "eq"), (u, False, "ne")):
            ops.append(
                Op(f"{kind}-{tag}", size,
                   lambda name=name, other=other: getattr(iseq, name)(t, other),
                   lambda got, want=want: got is want)
            )
    return ops


# ---------------------------------------------------------------------------
# tables


def tables(iseq, seed: int, workdir: str) -> list[Op]:
    """One table per (inputs 4..8, outputs 1..2); aux = (n + m) mod 2."""
    rng = random.Random(seed)
    parse = iseq.parse_instruction_sequence
    ops: list[Op] = []
    for n in range(4, 9):
        for m in (1, 2):
            k = (n + m) % 2
            conv = iseq.IoConvention(n, m, k)
            outputs = rand_table(rng, n, m)
            table = iseq.FunctionTable(n, m, outputs)
            mutated = mutate_last_row(rng, outputs, m)
            bad_table = iseq.FunctionTable(n, m, mutated)
            compiled = own_compile(outputs, n, m)
            c_term = parse(program_text(compiled))
            want_c = orc.flat_induced(compiled, n, m, k)
            program = rand_program(rng, n, m, k, 40)
            p_term = parse(program_text(program))
            want_p = orc.flat_induced(program, n, m, k)
            # the other tree tests with the opposite sign; it computes the
            # table or, for odd n, the table with its last row changed
            other = own_compile(outputs if n % 2 == 0 else mutated, n, m, "+")
            o_term = parse(program_text(other))
            same = orc.flat_induced(other, n, m, k) == want_c
            ops += [
                Op("compile", 0, lambda table=table: iseq.compile_table(table),
                   lambda got, n=n, m=m, o=outputs: program_ok(own_leaves(got), n, m, 0, o)),
                Op("computes-true", 0, lambda c=c_term, table=table, k=k: iseq.computes_check(c, table, k),
                   lambda got, want=(want_c == outputs): got is want),
                Op("computes-false", 0, lambda c=c_term, table=bad_table, k=k: iseq.computes_check(c, table, k),
                   lambda got, want=(want_c == mutated): got is want),
                Op("induced", 0, lambda c=c_term, conv=conv: iseq.induced_table(c, conv),
                   lambda got, want=want_c: got.outputs == want),
                Op("restrict", 0, lambda p=p_term, conv=conv: iseq.restrict_to_core(p, conv),
                   lambda got, n=n, m=m, k=k, want=want_p: program_ok(own_leaves(got), n, m, k, want)),
                Op("functional", 0, lambda c=c_term, o=o_term, conv=conv: iseq.functionally_equivalent(c, o, conv),
                   lambda got, want=same: got is want),
            ]
    return ops


# ---------------------------------------------------------------------------
# search

SEARCH_BUDGET = 2


def search(iseq, seed: int, workdir: str) -> list[Op]:
    """Every partial table of the reference conventions, in seeded order.

    The set is complete rather than sampled, so the seed only orders it: a
    sample would make the pass time depend on which tables it drew.
    """
    ref = search_ref.load()["lengths"]
    ops: list[Op] = []
    for n, m, k in search_ref.CONVENTIONS:
        for outputs in search_ref.partial_tables(n, m):
            table = iseq.FunctionTable(n, m, tuple(outputs))
            length = ref[search_ref.table_key(n, m, k, outputs)]
            expect = length if length is not None and length <= SEARCH_BUDGET else None
            ops.append(
                Op("search", 0, lambda table=table, k=k: iseq.search_shortest(table, k, SEARCH_BUDGET),
                   lambda got, n=n, m=m, k=k, o=tuple(outputs), want=expect:
                   got is None if want is None else got is not None and program_ok(own_leaves(got), n, m, k, o, want))
            )
    # the 0-input tables lead in a fixed order, so that the warm-up on the
    # first operation costs the same for every seed
    rest = ops[3:]
    random.Random(seed).shuffle(rest)
    return ops[:3] + rest


# ---------------------------------------------------------------------------
# cli-small

CLI_PER_COMMAND = 80
REG_FOCI = ("r1", "r2", "r3", "aux:1")
FAMILY_SIZES = (0, 4, 19, 99, 299)  # extra registers, below the recursion limit
CONVENTIONS = ((1, 1, 0), (1, 2, 1), (2, 1, 1), (2, 2, 0))


def _cli_op(iseq, kind: str, argv: list, check: Callable[[str], bool], code=0) -> Op:
    cli = iseq.cli

    def judge(result):
        got_code, out, err = result
        return got_code == code and err == "" and check(out)

    return Op(kind, 0, lambda: cli.run_command(argv), judge)


def _padded_family(rng: random.Random, foci, padding: int, known_p=0.8) -> dict:
    """Contents for some of ``foci`` plus ``padding`` registers no program names."""
    fam = {f: rng.choice("01") if rng.random() < 0.95 else "-" for f in foci if rng.random() < known_p}
    for i in range(1, padding + 1):
        fam[f"pad{i}"] = rng.choice("01")
    return fam


def _family_text(fam: dict) -> str:
    return "{" + ", ".join(f"{f}={c}" for f, c in fam.items()) + "}"


def _rand_family_term(rng: random.Random, total: int):
    if total <= 30 or rng.random() < 0.3:
        names = [f"r{rng.randint(1, 2 * total)}" for _ in range(total)]
        return ("bind", [(f, rng.choice("01-")) for f in names])
    left = rng.randint(1, total - 1)
    node = ("compose", _rand_family_term(rng, left), _rand_family_term(rng, total - left))
    if rng.random() < 0.3:
        node = ("hide", [f"r{rng.randint(1, total)}" for _ in range(rng.randint(1, 3))], node)
    return node


def cli_small(iseq, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    reg = lambda r: rand_reg_act(r, REG_FOCI)
    def table_file(n, m, outputs):
        """Path of a file holding the table; one file per distinct table."""
        name = f"n{n}m{m}-" + "-".join("x" if o is None else o for o in outputs)
        path = os.path.join(workdir, name + ".tbl")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(table_text(n, m, outputs))
        return path

    ref = search_ref.load()["lengths"]
    ops: list[Op] = []
    for i in range(CLI_PER_COMMAND):
        # sizes and options cycle with i, so that every seed gets the same
        # mix of costs and only the contents are drawn
        padding = FAMILY_SIZES[i // 2 % 5] if i % 2 else 0
        n, m, k = CONVENTIONS[i % 4]
        # parse, normalize, extract
        prefix, period = rand_small_term(rng, rand_act, 2 + i % 19)
        unf = orc.Unfolding(prefix, period)
        text = orc.render(term_of(rng, prefix, period))
        span = 2 * unf.size + 4
        replies = reply_seqs(rng, 3, 40)
        ops.append(_cli_op(iseq, "parse", ["parse", "-e", text],
                           lambda out, unf=unf, s=span: orc.Unfolding.of(orc.parse(out)).stream(s) == unf.stream(s)))
        form = ("isc", "first", "second")[i % 3]
        ops.append(_cli_op(iseq, "normalize", ["normalize", "--form", form, "-e", text],
                           lambda out, unf=unf, s=span, r=replies, form=form: _normal_ok(out, unf, s, r, form)))
        ops.append(_cli_op(iseq, "extract", ["extract", "-e", text],
                           lambda out, unf=unf, r=replies: same_traces(unf, orc.parse_equations(out), r)))
        # equiv: variant (true) or mutant (false), or functional on register programs
        relation = ("isc", "structural", "behavioural", "congruence", "functional")[i % 5]
        verdict = i // 5 % 2 == 0
        if relation == "functional":
            p = rand_program(rng, n, m, k, 4 + i % 9)
            rows = orc.flat_induced(p, n, m, k)
            q_rows = rows if verdict else mutate_last_row(rng, rows, m)
            argv = ["equiv", "--relation", "functional", "--inputs", str(n), "--outputs", str(m),
                    "--aux", str(k), "-e", program_text(p), "-e", program_text(own_compile(q_rows, n, m))]
        else:
            other = variant_of(rng, prefix, period) if verdict else mutant_of(rng, prefix, period)
            argv = ["equiv", "--relation", relation, "-e", text, "-e", orc.render(other)]
        ops.append(_cli_op(iseq, "equiv", argv, lambda out, v=verdict: out == f"{str(v).lower()}\n", 0 if verdict else 1))
        # family-eval
        fam_term = _rand_family_term(rng, FAMILY_SIZES[i % 5] + 1)
        ops.append(_cli_op(iseq, "family-eval", ["family-eval", "-e", orc.render_family_term(fam_term)],
                           lambda out, want=orc.eval_family(fam_term): orc.parse_family(out) == want))
        # use, apply, abstract, simulate on register terms
        rp, rq = rand_small_term(rng, reg, 2 + (i * 7) % 19)
        runf = orc.Unfolding(rp, rq)
        rtext = orc.render(term_of(rng, rp, rq))
        fam = _padded_family(rng, REG_FOCI, padding)
        ftext = _family_text(fam)
        ops.append(_cli_op(iseq, "use", ["use", "-e", rtext, "-f", ftext],
                           lambda out, u=runf, f=fam, r=replies: same_traces(u, orc.parse_equations(out), r, f)))
        full = _padded_family(rng, REG_FOCI, padding, known_p=0.95)
        ops.append(_cli_op(iseq, "apply", ["apply", "-e", rtext, "-f", _family_text(full)],
                           lambda out, u=runf, f=full: orc.parse_family(out) == orc.apply_run(u, f)))
        if i % 2:
            argv = ["abstract", "-e", rtext, "-f", ftext]
            check = lambda out, u=runf, f=fam, r=replies: same_traces(u, orc.parse_equations(out), r, f, True)
        else:
            argv = ["abstract", "-e", text]
            check = lambda out, u=unf, r=replies: same_traces(u, orc.parse_equations(out), r)
        ops.append(_cli_op(iseq, "abstract", argv, check))
        fuel = 1 + (i * 13) % 60
        ops.append(_cli_op(iseq, "simulate", ["simulate", "--fuel", str(fuel), "-e", rtext, "-f", _family_text(full)],
                           lambda out, u=runf, f=full, fuel=fuel: _simulate_ok(out, u, f, fuel)))
        # computes, compile-table, restrict-core, search
        p = rand_program(rng, n, m, k, 4 + i % 13)
        rows = orc.flat_induced(p, n, m, k)
        verdict = i // 4 % 2 == 0
        t_rows = rows if verdict else mutate_last_row(rng, rows, m)
        ops.append(_cli_op(iseq, "computes", ["computes", "--table", table_file(n, m, t_rows), "--aux", str(k),
                                              "-e", program_text(p)],
                           lambda out, v=verdict: out == f"{str(v).lower()}\n", 0 if verdict else 1))
        cn, cm = 1 + i % 3, 1 + i // 3 % 2
        c_rows = rand_table(rng, cn, cm)
        ops.append(_cli_op(iseq, "compile-table", ["compile-table", "--table", table_file(cn, cm, c_rows)],
                           lambda out, n=cn, m=cm, o=c_rows: _program_ok(out, n, m, 0, o)))
        ops.append(_cli_op(iseq, "restrict-core", ["restrict-core", "--inputs", str(n), "--outputs", str(m),
                                                   "--aux", str(k), "-e", program_text(p)],
                           lambda out, n=n, m=m, k=k, o=rows: _program_ok(out, n, m, k, o)))
        sk, budget = i % 2, 1 + i // 2 % 2
        s_rows = rand_table(rng, 1, 1, undefined_p=1 / 3)
        length = ref[search_ref.table_key(1, 1, sk, s_rows)]
        found = length is not None and length <= budget
        ops.append(_cli_op(iseq, "search", ["search", "--table", table_file(1, 1, s_rows), "--max-len", str(budget),
                                            "--aux", str(sk)],
                           lambda out, k=sk, o=s_rows, want=length if found else None:
                           out == "none\n" if want is None else _program_ok(out, 1, 1, k, o, want),
                           0 if found else 1))
    # round 0 leads unshuffled: the warm-up runs the first operation of each
    # kind, and round 0 has the same sizes for every seed
    rest = ops[13:]
    rng.shuffle(rest)
    return ops[:13] + rest


def _normal_ok(out: str, unf: orc.Unfolding, span: int, replies, form: str) -> bool:
    got = orc.Unfolding.of(orc.parse(out))
    if form != "second":
        return got.stream(span) == unf.stream(span)
    return no_chained_jumps(got) and same_traces(unf, got, replies)


def _simulate_ok(out: str, unf: orc.Unfolding, family: dict, fuel: int) -> bool:
    outcome, _, fam_text = out.strip().partition(" ")
    return (outcome, orc.parse_family(fam_text)) == orc.simulate_run(unf, family, fuel)


def _program_ok(out: str, n: int, m: int, k: int, want: tuple, length=None) -> bool:
    return program_ok(orc.leaves(orc.parse(out)), n, m, k, want, length)


WORKLOADS = {
    "large-terms": large_terms,
    "tables": tables,
    "search": search,
    "cli-small": cli_small,
}
