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
        elif isinstance(node, SingletonFamily):
            focus = node.focus
            out[focus] = RegisterContent.INOPERATIVE if focus in out else node.content
        elif isinstance(node, HideFamily):
            for focus, content in evaluate_family(node.body).items():
                if focus not in node.hidden:
                    out[focus] = RegisterContent.INOPERATIVE if focus in out else content
        elif not isinstance(node, EmptyFamily):
            raise TypeError(f"not a register family term: {node!r}")
    return out


def render_family(family: RegisterFamily) -> str:
    if not family:
        return "{}"
    parts = [
        f"{focus}={family[focus].token}"
        for focus in sorted(family, key=focus_sort_key)
    ]
    return "{" + ", ".join(parts) + "}"

