"""Evaluation of Boolean register family terms to plain focus -> content maps.

Composition is a map union in which a name clash collapses the register to
the inoperative content, and encapsulation removes the named registers.
Every closed family term evaluates to such a map, so downstream code only
ever sees evaluated families.  The CLI reads a family text with ``_read``,
which folds it into the map in one walk over its tokens by the same rules;
``parse_register_family`` then ``evaluate_family`` stay the library route,
the reference ``_read`` is tested against, and the source of its errors.
"""

from __future__ import annotations

from .syntax import MAX_NESTING, _CONTENT_OF, _is_ident, _tokens, parse_register_family
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


def _read(text: str) -> RegisterFamily:
    """``evaluate_family(parse_register_family(text))``, folded into the map
    in one walk over the tokens, one ``Focus`` per focus and no term built.
    A token it does not expect, nesting past ``MAX_NESTING`` or an index
    ``int`` refuses sends the text to the parser, so every error is the parser's."""
    tokens, foci, out, frames, i = _tokens(text), {}, {}, [], 0
    clash = RegisterContent.INOPERATIVE

    def need(tok: str, i: int) -> int:  # the index past token i, which must be tok
        if tokens[i] != tok:
            raise LookupError(i)
        return i + 1

    def focus(i: int) -> tuple[Focus, int]:  # the focus at token i, and the index past it
        key = (tokens[i], int(tokens[i + 2]) if tokens[i + 1] == ":" else None)  # Focus refuses index 0
        if not _is_ident(key[0]):
            raise LookupError(key)
        return foci.get(key) or foci.setdefault(key, Focus(*key)), i + (1 if key[1] is None else 3)

    try:
        while True:  # at an operand
            if tokens[i] == "{":
                i, sep = i + (tokens[i + 1] == "}"), "{"  # "{}" binds nothing
                while tokens[i] == sep:
                    f, i = focus(i + 1)
                    content = _CONTENT_OF[tokens[i + 1] if tokens[i] == "=" else ""]  # KeyError unless "=" 0/1/-
                    out[f] = clash if f in out else content
                    sep, i = ",", i + 2
                i = need("}", i)
            else:  # "(" or "hide{...}(": one level deeper, a hidden operand into a map of its own
                hidden = None
                if tokens[i] == "hide" and tokens[i + 1] == "{":
                    hidden, i = set(), i + 1
                    while not hidden or tokens[i] == ",":
                        f, i = focus(i + 1)
                        hidden.add(f)
                    i = need("}", i)
                frames.append((out, hidden))
                out, i = out if hidden is None else {}, need("(", i)
                if len(frames) > MAX_NESTING:
                    raise LookupError(i)
                continue
            while tokens[i] == ")" and frames:
                outer, hidden = frames.pop()
                if hidden is not None:  # out's keys are distinct, so one update is the left-to-right fold
                    outer.update({f: clash if f in outer else c for f, c in out.items() if f not in hidden})
                out, i = outer, i + 1
            if tokens[i] != "+":
                break
            i += 1
        need(")" if frames else "", i)  # the end, where every parenthesis is closed
    except (LookupError, ValueError):
        return evaluate_family(parse_register_family(text))
    return out


def render_family(family: RegisterFamily) -> str:
    items = sorted(family.items(), key=lambda item: focus_sort_key(item[0]))
    # ``_value_`` is the token: Enum's ``value`` property costs a quarter of this render
    return "{" + ", ".join(f"{focus}={content._value_}" for focus, content in items) + "}"
