"""Sharing instruction objects within a parse changes no result.

A parse returns one object per distinct instruction and per focus, and
extraction finds labels by object identity first.  ``oracles.fresh_copy``
rebuilds a term with equal but distinct objects, foci included.  On the
exhaustive scopes of ``tests/test_deciders.py``, parsed terms, their fresh
copies and a parsed term against a fresh copy must give the same verdicts
and the same ``extract`` rendering.
"""

import functools
import itertools

from iseq.extraction import behaviourally_congruent, behaviourally_equivalent, extract
from iseq.syntax import leaves, parse_instruction_sequence as parse, parse_register_family, render_term
from iseq.threads import render_thread

from . import oracles
from .test_deciders import ALPHABET, sequences, term


@functools.cache
def both(x):
    """The parsed term of a (prefix, period) split and its fresh copy."""
    parsed = parse(render_term(term(*x)))
    return parsed, oracles.fresh_copy(parsed)


def test_a_parse_shares_equal_instructions():
    t = parse("a;a")
    assert t.left is t.right
    first, neg, pos, jump, jump2, halt, halt2 = leaves(parse("+aux:1.i/c;-aux:1.i/c;+aux:1.i/c;#2;#2;!;!"))
    assert first is pos and first.basic is neg.basic
    assert jump is jump2 and halt is halt2
    # a fresh copy shares nothing, down to the foci
    copied = leaves(oracles.fresh_copy(parse("+aux:1.i/c;-aux:1.i/c;#2;#2")))
    assert len({id(x) for x in copied}) == 4
    assert copied[0].basic is not copied[1].basic
    assert copied[0].basic.focus is not copied[1].basic.focus


def test_a_parse_shares_each_focus():
    read, complement = leaves(parse("+in:1.i/i;in:1.c/c"))
    assert read.basic is not complement.basic
    assert read.basic.focus is complement.basic.focus
    family = parse_register_family("{f=1} + hide{f}({f=0})")
    (hidden,) = family.right.hidden
    assert family.left.focus is hidden is family.right.body.focus


def check_pair(x, y, equivalence=True):
    (px, fx), (py, fy) = both(x), both(y)
    deciders = (behaviourally_congruent, behaviourally_equivalent) if equivalence else (behaviourally_congruent,)
    for decide in deciders:
        want = decide(px, py)
        assert decide(fx, fy) is want and decide(px, fy) is want, (decide.__name__, x, y)


def test_fresh_copies_decide_alike_on_every_short_finite_pair():
    """The 4,160 finite pairs of ``tests/test_deciders.py``, both deciders."""
    cases = 0
    for length in (1, 2):
        seqs = [(seq, ()) for seq in itertools.product(ALPHABET, repeat=length)]
        for x, y in itertools.product(seqs, repeat=2):
            check_pair(x, y)
            cases += 1
    assert cases == 4160


def test_fresh_copies_decide_alike_on_every_short_periodic_pair():
    """The 11,025 periodic pairs of ``tests/test_deciders.py``, congruence
    on all and equivalence on the first 3,000."""
    alphabet = ALPHABET[:-1]
    splits = [((), (x,)) for x in alphabet]
    splits += [((x,), (y,)) for x, y in itertools.product(alphabet, repeat=2)]
    splits += [((), (x, y)) for x, y in itertools.product(alphabet, repeat=2)]
    for n, (x, y) in enumerate(itertools.product(splits, repeat=2)):
        check_pair(x, y, equivalence=n < 3000)
    assert n + 1 == 11025


def test_fresh_copies_extract_alike_on_every_short_split():
    """The 2,256 splits of ``tests/test_deciders.py``: the same thread and
    the same rendering from the hand-built, parsed and fresh terms."""
    cases = 0
    for seq in sequences(3):
        for cut in range(len(seq) + 1):
            x = seq[:cut], seq[cut:]
            want = extract(term(*x))
            for t in both(x):
                got = extract(t)
                assert got == want and render_thread(got) == render_thread(want), x
            cases += 1
    assert cases == 2256
