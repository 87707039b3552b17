"""Evaluation of Boolean register family terms to plain focus -> content maps.

Composition is a map union in which a name clash collapses the register to
the inoperative content, and encapsulation removes the named registers.
Every closed family term evaluates to such a map, so downstream code only
ever sees evaluated families.
"""

from __future__ import annotations

from .syntax import (
    ComposeFamily,
    EmptyFamily,
    Focus,
    HideFamily,
    RegisterContent,
    RegisterFamilyTerm,
    SingletonFamily,
    focus_sort_key,
)

RegisterFamily = dict[Focus, RegisterContent]


def evaluate_family(t: RegisterFamilyTerm) -> RegisterFamily:
    """The focus -> content map a family term denotes.

    Composition is associative, so every operand of a tree of compositions
    is folded, left to right, into one map, in time linear in the number of
    bindings; only an encapsulation is evaluated by a recursive call, so
    recursion goes as deep as encapsulations nest, never as deep as a long
    composition.
    """
    out: RegisterFamily = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, ComposeFamily):
            stack.append(node.right)
            stack.append(node.left)
            continue
        if isinstance(node, EmptyFamily):
            continue
        if isinstance(node, SingletonFamily):
            part = {node.focus: node.content}
        elif isinstance(node, HideFamily):
            body = evaluate_family(node.body)
            part = {f: c for f, c in body.items() if f not in node.hidden}
        else:
            raise TypeError(f"not a register family term: {node!r}")
        for focus, content in part.items():
            out[focus] = RegisterContent.INOPERATIVE if focus in out else content
    return out


def compose(left: RegisterFamily, right: RegisterFamily) -> RegisterFamily:
    """Union of two families; same-name registers collapse to inoperative."""
    out = dict(left)
    for focus, content in right.items():
        out[focus] = RegisterContent.INOPERATIVE if focus in out else content
    return out


def render_family(family: RegisterFamily) -> str:
    if not family:
        return "{}"
    parts = [
        f"{focus}={family[focus].token}"
        for focus in sorted(family, key=focus_sort_key)
    ]
    return "{" + ", ".join(parts) + "}"


def family_key(family: RegisterFamily) -> tuple:
    """Hashable canonical view, for use as a state-space component."""
    return tuple(sorted(family.items(), key=lambda kv: focus_sort_key(kv[0])))
