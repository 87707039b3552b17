"""Oracles the benchmark checks ``iseq`` against, written apart from it.

Nothing here imports ``iseq``.  Terms, families and programs use the
benchmark's own plain-tuple representation:

    instruction  ("act", sign, basic)   sign "" | "+" | "-"
                 ("jump", offset)
                 ("halt",)
    basic        ("abs", name)
                 ("reg", focus, reply, effect)   reply/effect in "0", "1", "i", "c"
    term         an instruction | ("seq", [term, ...]) | ("rep", term)
    family term  ("bind", [(focus, content), ...]) | ("compose", left, right)
                 | ("hide", [focus, ...], body)

The oracles are a renderer and parser for the source syntax, a flattener to
prefix and period, a stepper over that unfolding driven by reply sequences,
a stepper over threads, an interpreter for flat register programs and a
dict-merge family evaluator.
"""

from __future__ import annotations

import re

FUNCS = {
    "0": lambda b: False,
    "1": lambda b: True,
    "i": lambda b: b,
    "c": lambda b: not b,
}
CORE_OPS = {("0", "0"), ("1", "1"), ("i", "i")}


# ---------------------------------------------------------------------------
# rendering and parsing of the source syntax


def basic_text(basic) -> str:
    if basic[0] == "abs":
        return basic[1]
    _, focus, reply, effect = basic
    return f"{focus}.{reply}/{effect}"


def instr_text(ins) -> str:
    if ins[0] == "halt":
        return "!"
    if ins[0] == "jump":
        return f"#{ins[1]}"
    return ins[1] + basic_text(ins[2])


def is_instr(t) -> bool:
    return t[0] in ("act", "jump", "halt")


def render(t) -> str:
    """Source text of a term; nested sequences keep their parentheses."""
    if is_instr(t):
        return instr_text(t)
    if t[0] == "rep":
        body = t[1]
        return f"{render(body)}*" if is_instr(body) else f"({render(body)})*"
    return ";".join(f"({render(item)})" if item[0] == "seq" else render(item) for item in t[1])


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokens(text: str) -> list[str]:
    out = []
    for match in _TOKEN.finditer(text):
        tok = match.group(1) or match.group(2) or match.group(3)
        if tok:
            out.append(tok)
    return out


def parse(text: str):
    """Term of the source syntax (the grammar of ``iseq`` terms)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"oracle parse: expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def basic():
        name = take()
        if peek() == ":":
            take()
            name += ":" + take()
        if peek() == ".":
            take()
            reply = take()
            take("/")
            return ("reg", name, reply, take())
        return ("abs", name)

    def atom():
        tok = peek()
        if tok == "(":
            take()
            inner = seq()
            take(")")
            return inner
        if tok == "!":
            take()
            return ("halt",)
        if tok == "#":
            take()
            return ("jump", int(take()))
        if tok in ("+", "-"):
            take()
            return ("act", tok, basic())
        return ("act", "", basic())

    def item():
        a = atom()
        if peek() == "*":
            take()
            return ("rep", a)
        return a

    def seq():
        items = [item()]
        while peek() == ";":
            take()
            items.append(item())
        return items[0] if len(items) == 1 else ("seq", items)

    term = seq()
    if peek() is not None:
        raise ValueError(f"oracle parse: trailing {peek()!r} in {text!r}")
    return term


# ---------------------------------------------------------------------------
# the unfolding: prefix plus period


def flatten(t) -> tuple[list, list]:
    """(prefix, period) of the instruction stream a term denotes."""
    if is_instr(t):
        return [t], []
    if t[0] == "rep":
        pre, per = flatten(t[1])
        return (pre, per) if per else ([], pre)
    acc: list = []
    for item in t[1]:
        pre, per = flatten(item)
        acc.extend(pre)
        if per:
            return acc, per
    return acc, []


class Unfolding:
    """Random access to the stream ``prefix + period^omega`` (1-based)."""

    def __init__(self, prefix, period):
        self.prefix = list(prefix)
        self.period = list(period)
        self.size = len(self.prefix) + len(self.period)

    @classmethod
    def of(cls, t) -> "Unfolding":
        return cls(*flatten(t))

    def wrap(self, pos: int):
        if 1 <= pos <= self.size:
            return pos
        if pos < 1 or not self.period:
            return None
        m = len(self.prefix)
        return m + 1 + (pos - m - 1) % len(self.period)

    def at(self, pos: int):
        w = self.wrap(pos)
        if w is None:
            return None
        m = len(self.prefix)
        return self.prefix[w - 1] if w <= m else self.period[w - m - 1]

    def stream(self, count: int) -> list:
        out = []
        for pos in range(1, count + 1):
            ins = self.at(pos)
            if ins is None:
                break
            out.append(ins)
        return out


def _next_pos(pos: int, sign: str, reply: bool) -> int:
    if sign == "":
        return pos + 1
    return pos + (1 if reply == (sign == "+") else 2)


def step_term(unf: Unfolding, replies, family=None, max_actions=200, hide_tau=False):
    """Run the unfolding on a reply sequence.

    Returns (trace, end): trace lists ``(action text, reply)`` for observable
    steps and ``("tau",)`` for steps on registers of ``family``; end is "S"
    (terminated), "D" (inactive) or "F" (action budget spent).  A chain of
    more jumps than stored positions is a jump cycle, hence inactive.  With
    ``hide_tau`` internal steps are concealed and an internal cycle is
    inactive.
    """
    regs = dict(family) if family is not None else None
    replies = iter(replies)
    trace: list = []
    pos, jumps = 1, 0
    seen: set = set()
    while len(trace) < max_actions:
        ins = unf.at(pos)
        if ins is None or ins == ("jump", 0):
            return trace, "D"
        if ins[0] == "halt":
            return trace, "S"
        if ins[0] == "jump":
            jumps += 1
            if jumps > unf.size:
                return trace, "D"
            pos += ins[1]
            continue
        jumps = 0
        _, sign, basic = ins
        if regs is not None and basic[0] == "reg" and basic[1] in regs:
            content = regs[basic[1]]
            if content == "-":
                return trace, "D"
            if hide_tau:
                state = (unf.wrap(pos), tuple(sorted(regs.items())))
                if state in seen:
                    return trace, "D"
                seen.add(state)
            bit = content == "1"
            reply = FUNCS[basic[2]](bit)
            regs[basic[1]] = "1" if FUNCS[basic[3]](bit) else "0"
            if not hide_tau:
                trace.append(("tau",))
        else:
            reply = next(replies)
            trace.append((basic_text(basic), reply))
            seen.clear()
        pos = _next_pos(pos, sign, reply)
    return trace, "F"


# ---------------------------------------------------------------------------
# threads as state tables


def parse_equations(text: str) -> tuple[dict, str]:
    """State table of recursion equations ``Xi = (Xj) <action> (Xk)``."""
    states: dict = {}
    lines = text.strip().splitlines()
    for line in lines:
        name, rhs = (part.strip() for part in line.split("=", 1))
        if rhs in ("S", "D"):
            states[name] = rhs
            continue
        match = re.fullmatch(r"\((\w+)\) <(.+)> \((\w+)\)", rhs)
        if match is None:
            raise ValueError(f"not a recursion equation: {line!r}")
        states[name] = (match.group(2), match.group(1), match.group(3))
    return states, "X0"


def thread_table(thread) -> tuple[dict, int]:
    """State table of an ``iseq`` thread object, read through its fields only."""
    states: dict = {}
    for index, node in enumerate(thread.nodes):
        kind = type(node).__name__
        if kind == "Stop":
            states[index] = "S"
        elif kind == "Dead":
            states[index] = "D"
        else:
            states[index] = (str(node.action), node.on_true, node.on_false)
    return states, thread.root


def step_thread(table: tuple[dict, object], replies, max_actions=200):
    """Run a thread state table on a reply sequence, like :func:`step_term`."""
    states, state = table
    replies = iter(replies)
    trace: list = []
    while len(trace) < max_actions:
        node = state if state in ("S", "D") else states[state]
        if node in ("S", "D"):
            return trace, node
        action, on_true, on_false = node
        if action == "tau":
            trace.append(("tau",))
            state = on_true
            continue
        reply = next(replies)
        trace.append((action, reply))
        state = on_true if reply else on_false
    return trace, "F"


# ---------------------------------------------------------------------------
# flat register programs


def leaves(t) -> list:
    prefix, period = flatten(t)
    if period:
        raise ValueError("program has a repeating part")
    return prefix


def run_flat(instrs, regs: dict) -> str:
    """Run a repetition-free register program in place; "S" or "D".

    An unknown or inoperative register makes the run inactive.
    """
    pos = 1
    while 1 <= pos <= len(instrs):
        ins = instrs[pos - 1]
        if ins[0] == "halt":
            return "S"
        if ins[0] == "jump":
            if ins[1] == 0:
                return "D"
            pos += ins[1]
            continue
        _, sign, basic = ins
        if basic[0] != "reg" or regs.get(basic[1], "-") == "-":
            return "D"
        bit = regs[basic[1]] == "1"
        reply = FUNCS[basic[2]](bit)
        regs[basic[1]] = "1" if FUNCS[basic[3]](bit) else "0"
        pos = _next_pos(pos, sign, reply)
    return "D"


def flat_induced(instrs, n: int, m: int, k: int) -> tuple:
    """Output row per input row (big-endian order), None where undefined."""
    rows = []
    for v in range(2**n):
        bits = format(v, f"0{n}b") if n else ""
        regs = {f"in:{i}": b for i, b in enumerate(bits, start=1)}
        regs.update({f"aux:{i}": "0" for i in range(1, k + 1)})
        regs.update({f"out:{i}": "0" for i in range(1, m + 1)})
        if run_flat(instrs, regs) == "S":
            rows.append("".join(regs[f"out:{i}"] for i in range(1, m + 1)))
        else:
            rows.append(None)
    return tuple(rows)


def is_core_program(instrs, n: int, m: int, k: int) -> bool:
    names = {f"in:{i}" for i in range(1, n + 1)}
    names |= {f"out:{i}" for i in range(1, m + 1)} | {f"aux:{i}" for i in range(1, k + 1)}
    for ins in instrs:
        if ins[0] == "act":
            basic = ins[2]
            if basic[0] != "reg" or basic[1] not in names or (basic[2], basic[3]) not in CORE_OPS:
                return False
    return True


def apply_run(unf: Unfolding, family: dict) -> dict:
    """Final family after running the unfolding on it; {} on any failure.

    Every executed instruction must address a register of the family; a
    revisited (position, contents) state is divergence.
    """
    regs = dict(family)
    pos = 1
    seen: set = set()
    while True:
        w = unf.wrap(pos)
        if w is None:
            return {}
        state = (w, tuple(sorted(regs.items())))
        if state in seen:
            return {}
        seen.add(state)
        ins = unf.at(w)
        if ins[0] == "halt":
            return regs
        if ins[0] == "jump":
            if ins[1] == 0:
                return {}
            pos = w + ins[1]
            continue
        _, sign, basic = ins
        if basic[0] != "reg" or regs.get(basic[1], "-") == "-":
            return {}
        bit = regs[basic[1]] == "1"
        reply = FUNCS[basic[2]](bit)
        regs[basic[1]] = "1" if FUNCS[basic[3]](bit) else "0"
        pos = _next_pos(w, sign, reply)


def simulate_run(unf: Unfolding, family: dict, fuel: int) -> tuple[str, dict]:
    """Fuel-bounded run; every executed instruction costs one unit."""
    regs = dict(family)
    pos = 1
    while True:
        if fuel <= 0:
            return "fuel-exhausted", regs
        ins = unf.at(pos)
        if ins is None:
            return "inactive", regs
        fuel -= 1
        if ins[0] == "halt":
            return "terminated", regs
        if ins[0] == "jump":
            if ins[1] == 0:
                return "inactive", regs
            pos += ins[1]
            continue
        _, sign, basic = ins
        if basic[0] != "reg" or regs.get(basic[1], "-") == "-":
            return "inactive", regs
        bit = regs[basic[1]] == "1"
        reply = FUNCS[basic[2]](bit)
        regs[basic[1]] = "1" if FUNCS[basic[3]](bit) else "0"
        pos = _next_pos(pos, sign, reply)


# ---------------------------------------------------------------------------
# register families


def eval_family(t) -> dict:
    """Dict-merge evaluation: a name clash makes the register inoperative."""
    if t[0] == "bind":
        out: dict = {}
        for focus, content in t[1]:
            out[focus] = "-" if focus in out else content
        return out
    if t[0] == "compose":
        out = eval_family(t[1])
        for focus, content in eval_family(t[2]).items():
            out[focus] = "-" if focus in out else content
        return out
    hidden = set(t[1])
    return {f: c for f, c in eval_family(t[2]).items() if f not in hidden}


def render_family_term(t) -> str:
    if t[0] == "bind":
        return "{" + ", ".join(f"{f}={c}" for f, c in t[1]) + "}"
    if t[0] == "compose":
        return f"({render_family_term(t[1])}) + ({render_family_term(t[2])})"
    return "hide{" + ", ".join(t[1]) + "}(" + render_family_term(t[2]) + ")"


def parse_family(text: str) -> dict:
    """Evaluated family printed as ``{f=1, g=0}``."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not an evaluated family: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return {}
    out = {}
    for part in inner.split(","):
        focus, content = (s.strip() for s in part.split("="))
        if focus in out or content not in ("0", "1", "-"):
            raise ValueError(f"bad family binding {part!r}")
        out[focus] = content
    return out
