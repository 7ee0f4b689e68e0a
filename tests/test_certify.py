"""Each certificate kind accepts genuine witnesses and rejects broken
ones, judged against the brute-force oracles."""
from __future__ import annotations

import random
from math import gcd

import pytest

from ebmod import certify
from ebmod.errors import InconsistencyError
from ebmod.sequences import ResidueSequence

from oracles import brute_idempotents, brute_is_free, brute_is_product_one_free


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except InconsistencyError:
        return False
    return True


def test_product_one_free_witness():
    assert _accepts(certify.product_one_free, ResidueSequence(12, [5, 7]), 3)
    assert _accepts(certify.product_one_free, ResidueSequence(2, []), 1)
    for terms, value in (([5, 5], 3), ([5, 7], 4), ([5, 6], 3), ([1], 2)):
        assert not _accepts(certify.product_one_free, ResidueSequence(12, terms), value)


@pytest.mark.parametrize("n", [6, 9, 12, 15])
def test_product_one_free_matches_oracle(n):
    rng = random.Random(n)
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    for _ in range(40):
        terms = rng.choices(units, k=rng.randint(1, 4))
        T = ResidueSequence(n, terms)
        got = _accepts(certify.product_one_free, T, len(T) + 1)
        assert got == brute_is_product_one_free(terms, n)


@pytest.mark.parametrize("n", [6, 8, 12, 18, 20])
def test_idempotent_product_free_matches_oracle(n):
    rng = random.Random(n)
    for _ in range(60):
        terms = rng.choices(range(n), k=rng.randint(1, 5))
        T = ResidueSequence(n, terms)
        assert _accepts(certify.idempotent_product_free, T) == brute_is_free(terms, n)


def test_idempotent_product_free_length_claim():
    T = ResidueSequence(12, [2, 3, 5])
    assert _accepts(certify.idempotent_product_free, T, 4)
    assert _accepts(certify.idempotent_product_free, T)
    assert not _accepts(certify.idempotent_product_free, T, 5)
    assert _accepts(certify.idempotent_product_free, ResidueSequence(2, []), 1)


@pytest.mark.parametrize("n", [4, 6, 9, 12, 30])
def test_idempotent_product_matches_oracle(n):
    idem = set(brute_idempotents(n))
    rng = random.Random(n)
    for _ in range(60):
        terms = rng.choices(range(n), k=rng.randint(1, 4))
        prod = 1
        for a in terms:
            prod = prod * a % n
        W = ResidueSequence(n, terms)
        assert _accepts(certify.idempotent_product, W) == (prod in idem)
    assert not _accepts(certify.idempotent_product, ResidueSequence(n, []))
