"""Algebra workbench for single-pass instruction sequences over Boolean registers.

The package decomposes along the theory's layers: concrete syntax and ASTs
(:mod:`iseq.syntax`), canonical forms and structural congruences
(:mod:`iseq.canonical`), regular threads (:mod:`iseq.threads`), thread
extraction and behavioural equivalences (:mod:`iseq.extraction`), register
families (:mod:`iseq.registers`), thread/register interaction
(:mod:`iseq.interaction`), and the function-computation layer with table
compilation, core-instruction restriction and shortest-program search
(:mod:`iseq.compute`).
"""

from .canonical import (
    CanonicalSeq,
    instruction_sequence_congruent,
    structurally_congruent,
    term_of_canonical,
    to_first_canonical,
    to_second_canonical,
)
from .compute import (
    IoConvention,
    SearchBudgetExceeded,
    compile_table,
    computes_check,
    functionally_equivalent,
    induced_table,
    restrict_to_core,
    search_shortest,
)
from .extraction import (
    behaviourally_congruent,
    behaviourally_equivalent,
    extract,
    synthesize_repetition,
)
from .interaction import Outcome, abstract_tau, apply, simulate, unfold, use
from .registers import RegisterFamily, evaluate_family, render_family
from .syntax import (
    AbstractAction,
    Concat,
    Focus,
    FunctionTable,
    Halt,
    InstructionSequenceTerm,
    Jump,
    NegTest,
    ParseError,
    Plain,
    PosTest,
    RegisterAction,
    RegisterContent,
    RegisterFamilyTerm,
    Repeat,
    UnaryBoolFunc,
    parse_function_table,
    parse_instruction_sequence,
    parse_register_family,
    render_family_term,
    render_function_table,
    render_term,
)
from .threads import (
    TAU,
    Branch,
    Dead,
    RegularThread,
    Stop,
    minimize,
    project,
    render_thread,
    threads_equal,
)

