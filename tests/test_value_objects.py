"""Value objects are slotted: no instance carries a ``__dict__``, and
pickling and copying still give an equal object with the same hash and
``repr``; the internal action ``TAU`` stays the one object."""

import copy
import dataclasses
import pickle

from iseq.canonical import to_second_canonical
from iseq.compute import IoConvention
from iseq.extraction import extract
from iseq.interaction import use
from iseq.syntax import Focus, RegisterContent, parse_function_table, parse_instruction_sequence, parse_register_family
from iseq.threads import TAU, Branch, threads_equal

VALUE_CLASSES = {
    "Focus", "AbstractAction", "RegisterAction", "Plain", "PosTest", "NegTest", "Jump", "Halt",
    "Concat", "Repeat", "EmptyFamily", "SingletonFamily", "ComposeFamily", "HideFamily",
    "FunctionTable", "Stop", "Dead", "Branch", "RegularThread", "CanonicalSeq", "IoConvention",
}


def value_objects():
    """One instance of each value class, taken from the parts of a few
    parsed, canonical and extracted objects."""
    term = parse_instruction_sequence("+a;-f.1/0;aux:2.i/c;#0;(b;#2;!)*")
    roots = [
        term,
        to_second_canonical(term),
        extract(parse_instruction_sequence("+a;!;#0")),
        parse_register_family("hide{g}({f=1, g=0} + {})"),
        parse_function_table("inputs 1 outputs 1\n0 -> 1\n1 -> _\n"),
        IoConvention(2, 1, 1),
    ]
    found = {}
    stack = roots
    while stack:
        obj = stack.pop()
        if dataclasses.is_dataclass(obj):
            found.setdefault(type(obj).__name__, obj)
            stack += [getattr(obj, field.name) for field in dataclasses.fields(obj)]
        elif isinstance(obj, (tuple, frozenset)):
            stack += obj
    return found


def clones(obj):
    return pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)


def test_every_value_class_is_slotted_and_pickles_and_copies_equal():
    found = value_objects()
    assert set(found) == VALUE_CLASSES
    for name, obj in found.items():
        assert not hasattr(obj, "__dict__"), name
        for clone in clones(obj):
            assert type(clone) is type(obj), name
            assert clone == obj, name
            assert hash(clone) == hash(obj), name
            assert repr(clone) == repr(obj), name


def test_tau_is_one_object_through_pickling_and_copying():
    for clone in clones(TAU):
        assert clone is TAU
    used = use(extract(parse_instruction_sequence("f.i/c;!")), {Focus("f"): RegisterContent.ZERO})
    assert any(type(node) is Branch and node.action is TAU for node in used.nodes)
    for clone in clones(used):
        for node, original in zip(clone.nodes, used.nodes):
            if type(original) is Branch and original.action is TAU:
                assert node.action is TAU
        assert threads_equal(clone, used)
