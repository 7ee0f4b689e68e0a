from __future__ import annotations

import random
from math import gcd

import pytest

from ebmod.arith import factorize, lift_to_unit
from ebmod.davenport import davenport_exact
from ebmod.errors import DomainError
from ebmod.unitgroup import log_index
from ebmod.sequences import (
    ResidueSequence,
    _min_product_one_pick,
    find_product_one_subsequence,
    format_sequence,
    is_idempotent_product_free,
    parse_sequence_literal,
    pi,
    product_set,
)

from oracles import (
    bitscan_product_one_pick,
    brute_is_free,
    brute_product_one_subsequence,
    brute_product_set,
)


def test_residue_sequence_normalizes_and_sorts():
    T = ResidueSequence(12, (7, 5, 19))
    assert T.as_tuple() == (5, 7, 7)  # 19 reduced to 7, canonical order
    assert len(T) == 3


def test_residue_sequence_equality_is_multiset_equality():
    assert ResidueSequence(10, (3, 7)) == ResidueSequence(10, (7, 3))
    assert ResidueSequence(10, (3, 7)) != ResidueSequence(11, (3, 7))
    assert hash(ResidueSequence(10, (3, 7))) == hash(ResidueSequence(10, (7, 3)))


def test_residue_sequence_bad_modulus():
    with pytest.raises(DomainError):
        ResidueSequence(1, (0,))


def test_pi_examples():
    assert pi(ResidueSequence(12, (5, 7))) == 11
    assert pi(ResidueSequence(5, (2, 2, 2))) == 3
    with pytest.raises(DomainError):
        pi(ResidueSequence(12, ()))


def _mask(residues) -> int:
    return sum(1 << a for a in set(residues))


def test_product_set_examples():
    assert product_set(ResidueSequence(4, (3, 2))) == _mask({2, 3})
    assert product_set(ResidueSequence(12, (5, 7, 2))) == _mask({2, 5, 7, 10, 11})


def test_product_set_against_brute_random():
    rng = random.Random(20260816)
    for _ in range(400):
        n = rng.randint(2, 30)
        T = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
        seq = ResidueSequence(n, T)
        assert product_set(seq) == _mask(brute_product_set(T, n))


def test_is_idempotent_product_free_examples():
    assert is_idempotent_product_free(ResidueSequence(4, (3, 2)))
    assert not is_idempotent_product_free(ResidueSequence(4, (2, 2)))
    assert is_idempotent_product_free(ResidueSequence(6, (2,)))
    assert not is_idempotent_product_free(ResidueSequence(6, (2, 2)))


def test_is_idempotent_product_free_against_brute():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 24)
        T = [rng.randrange(n) for _ in range(rng.randint(0, 7))]
        assert is_idempotent_product_free(ResidueSequence(n, T)) == brute_is_free(
            T, n
        )


def test_find_product_one_examples():
    got = find_product_one_subsequence(ResidueSequence(6, (5, 5)))
    assert got is not None and got.as_tuple() == (5, 5)
    assert find_product_one_subsequence(ResidueSequence(5, (2, 2, 2))) is None


def test_find_product_one_rejects_non_units():
    with pytest.raises(DomainError):
        find_product_one_subsequence(ResidueSequence(6, (2, 5)))
    # the error names the first non-unit in canonical order
    with pytest.raises(DomainError, match="term 3 is not coprime to 15"):
        find_product_one_subsequence(ResidueSequence(15, (7, 1, 6, 3, 4)))


def test_canonical_constructor_keeps_a_sorted_sub_list():
    T = ResidueSequence(30, (29, -1, 12, 0, 45))
    for sub in (T.as_tuple(), T.as_tuple()[1:4], T.as_tuple()[::2], ()):
        W = ResidueSequence._canonical(30, sub)
        assert W == ResidueSequence(30, sub) and W.as_tuple() == tuple(sub)


def test_find_product_one_minimizes_length_then_lex():
    # both (7,7) and (5,5,5,...)? mod 12: 5*5=1, 7*7=1, 11*11=1; lex-min pair is (5,5)
    got = find_product_one_subsequence(ResidueSequence(12, (11, 7, 5, 5, 7)))
    assert got.as_tuple() == (5, 5)
    # a 1 in the sequence wins outright (length 1)
    got = find_product_one_subsequence(ResidueSequence(12, (7, 7, 1)))
    assert got.as_tuple() == (1,)


def test_find_product_one_against_brute_random():
    rng = random.Random(4242)
    from math import gcd

    for _ in range(300):
        n = rng.randint(2, 18)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        T = [rng.choice(units) for _ in range(rng.randint(1, 7))]
        got = find_product_one_subsequence(ResidueSequence(n, T))
        expected = brute_product_one_subsequence(T, n)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.as_tuple() == expected


@pytest.mark.parametrize(
    "n",
    # cyclic unit groups, then ranks 2 to 4, then the trivial group
    (169, 361, 529, 8, 16, 24, 63, 105, 120, 240, 2),
)
def test_product_one_dp_picks_what_the_bit_scan_dp_picks(n):
    from math import gcd

    rng = random.Random(n)
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    lengths = [1, 2, 3, 5, 8, 13, 21, 40] + ([len(units)] if n > 100 else [])
    for L in lengths:
        for _ in range(4):
            pairs = [(v, v) for v in sorted(rng.choice(units) for _ in range(L))]
            assert _min_product_one_pick(pairs, n) == bitscan_product_one_pick(pairs, n)


@pytest.mark.parametrize("n", (30, 42, 66, 70, 78, 105, 210))
def test_product_one_dp_keeps_the_sort_key_tie_break(n):
    # the squarefree extractor's pairs: 0 and every multiple of a prime
    # dividing n lift to few units, so many keys share one unit
    from math import gcd

    f = factorize(n)
    rng = random.Random(n)
    shared = [a for a in range(n) if gcd(a, n) > 1]  # 0 and multiples of p
    for _ in range(30):
        terms = [
            rng.choice(shared) if rng.random() < 0.5 else rng.randrange(n)
            for _ in range(rng.randint(1, 14))
        ]
        pairs = sorted((a, lift_to_unit(a, f)) for a in terms)
        assert _min_product_one_pick(pairs, n) == bitscan_product_one_pick(pairs, n)


# a cyclic unit group, then ranks 2, 3 and 4: C156, C6+C6, C2+C2+C12, C2+C2+C2+C4
EARLY_EXIT_MODULI = (169, 63, 105, 120)


@pytest.mark.parametrize("n", EARLY_EXIT_MODULI)
def test_product_one_dp_answers_at_level_one_wherever_the_identity_sits(n):
    # sort keys apart from the units, as the squarefree extractor's lifts
    # have them, so the identity can sit first, in the middle or last
    rng = random.Random(n)
    units = [a for a in range(2, n) if gcd(a, n) == 1]
    L = 12
    for ones in ((0,), (L // 2,), (L - 1,), (3, 8), (0, L - 1)):
        for _ in range(10):
            values = [1 if i in ones else rng.choice(units) for i in range(L)]
            pairs = list(enumerate(values))
            got = _min_product_one_pick(pairs, n)
            assert got == bitscan_product_one_pick(pairs, n)
            assert got == [(ones[0], 1)]


def test_product_one_dp_answers_one_term_without_the_unit_index():
    # a prime modulus no other test reaches: building its unit index
    # would show as a miss
    before = log_index.cache_info()
    assert _min_product_one_pick([(1, 1), (2, 2)], 100003) == [(1, 1)]
    assert log_index.cache_info() == before


@pytest.mark.parametrize("n", EARLY_EXIT_MODULI)
@pytest.mark.parametrize("level", (2, 3, 4, 5))
def test_product_one_dp_stops_its_last_level_partway(n, level):
    # the answer has `level` terms, and the suffix after the first term
    # already holds one of that length, so the last level's loop meets the
    # identity before it reaches the first start
    rng = random.Random(n * 10 + level)
    units = [a for a in range(2, n) if gcd(a, n) == 1]
    hits = 0
    for _ in range(3000):
        L = rng.randint(level + 1, level + 5)
        pairs = [(v, v) for v in sorted(rng.choice(units) for _ in range(L))]
        want = bitscan_product_one_pick(pairs, n)
        suffix = bitscan_product_one_pick(pairs[1:], n)
        if want is None or len(want) != level or suffix is None or len(suffix) != level:
            continue
        assert _min_product_one_pick(pairs, n) == want
        hits += 1
        if hits == 3:
            break
    assert hits == 3


@pytest.mark.parametrize("n", (169, 63, 105, 210))
def test_product_one_dp_on_a_davenport_witness_and_its_completion(n):
    # a maximum product-one free sequence has no answer; with the inverse
    # of its product added, the answer may take every term
    witness = davenport_exact(n).witness.as_tuple()
    pairs = [(v, v) for v in witness]
    assert _min_product_one_pick(pairs, n) is None
    assert bitscan_product_one_pick(pairs, n) is None
    product = 1
    for v in witness:
        product = product * v % n
    completed = sorted((*witness, pow(product, -1, n)))
    pairs = [(v, v) for v in completed]
    got = _min_product_one_pick(pairs, n)
    assert got is not None and got == bitscan_product_one_pick(pairs, n)


def test_running_product_sets_strictly_grow_along_free_sequences():
    T = ResidueSequence(12, (2, 5, 7))
    terms = T.as_tuple()
    sizes = [
        product_set(ResidueSequence(12, terms[:i])).bit_count()
        for i in range(1, len(T) + 1)
    ]
    assert sizes == sorted(set(sizes)) and len(sizes) == len(T)


def test_parse_and_format_roundtrip():
    T = parse_sequence_literal("5,7,2", 12)
    assert T.as_tuple() == (2, 5, 7)
    assert format_sequence(T) == "2,5,7"
    assert parse_sequence_literal("", 12).as_tuple() == ()
    assert format_sequence(ResidueSequence(12, ())) == ""


def test_parse_rejects_out_of_range_without_reduce():
    with pytest.raises(DomainError):
        parse_sequence_literal("5,12", 12)
    assert parse_sequence_literal("5,12", 12, reduce=True).as_tuple() == (0, 5)
    with pytest.raises(DomainError):
        parse_sequence_literal("5,x", 12)
