"""Running behaviours against Boolean register families.

A register family maps names (foci) to contents 0, 1 or `-` (inoperative).
`use` lets a family answer a thread's register actions, leaving internal
tau steps behind; `apply` runs the thread over a family and returns the
final family; `abstract_tau` conceals the internal steps; `simulate` is a
direct stepper over the instruction stream that mirrors the algebraic
route.

The worked example is a 4-bit decrementer: register aux:i holds bit i of a
number (aux:4 most significant).
"""

from iseq import (
    abstract_tau,
    apply,
    evaluate_family,
    extract,
    parse_instruction_sequence as parse,
    parse_register_family,
    render_family,
    render_thread,
    simulate,
    use,
)

# For each bit position: if the bit is set, clear it and stop (borrow
# resolved); otherwise set it and carry the borrow to the next bit.
decrement = parse(";".join(f"-aux:{i}.i/i;#3;aux:{i}.0/0;!;aux:{i}.1/1" for i in range(1, 5)))

fourteen = evaluate_family(parse_register_family("{aux:4=1, aux:3=1, aux:2=1, aux:1=0}"))
print("start family (14)   :", render_family(fourteen))

thread = extract(decrement)
used = use(thread, fourteen)
print("behaviour against it:")
print(render_thread(used))
print("after concealment   :", render_thread(abstract_tau(used)))

final = apply(thread, fourteen)
print("final family (13)   :", render_family(final))
print()

# The direct stepper agrees.
outcome, family = simulate(decrement, fourteen, fuel=100)
print("simulate            :", outcome.value, render_family(family))
print()

# Registers the family does not know stay visible; inoperative registers
# deadlock; clashes collapse to inoperative.
print("name clash          :", render_family(evaluate_family(parse_register_family("{f=0} + {f=1}"))))
partial = evaluate_family(parse_register_family("{aux:1=-}"))
outcome, _ = simulate(parse("aux:1.i/i;!"), partial, fuel=10)
print("inoperative register:", outcome.value)
