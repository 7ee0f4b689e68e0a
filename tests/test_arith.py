from __future__ import annotations

import pytest

from ebmod.arith import (
    _FACTORIZE_MEMO,
    MAX_N,
    Factorization,
    crt_combine,
    factorize,
    idempotents,
    is_idempotent,
    lift_to_unit,
)
from ebmod.errors import DomainError
from ebmod.sequences import _idempotent_mask

from oracles import brute_idempotents


def test_factorize_small():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(2).factors == ((2, 1),)


def test_factorize_recomposes():
    for n in range(2, 2000):
        f = factorize(n)
        m = 1
        for p, k in f.factors:
            m *= p**k
        assert m == n


def test_factorize_counts():
    f = factorize(360)
    assert f.omega == 3
    assert f.big_omega == 6
    assert not f.is_squarefree
    assert not f.is_prime_power
    assert factorize(30).is_squarefree
    assert factorize(32).is_prime_power
    assert factorize(7).is_prime_power


def test_factorize_summary():
    assert factorize(12).summary() == "2^2*3"
    assert factorize(97).summary() == "97"
    assert factorize(360).summary() == "2^3*3^2*5"


def test_factorize_domain_errors():
    # raised on every call: the memo keeps no error
    for bad in (1, 0, -5, MAX_N + 1):
        for _ in range(3):
            with pytest.raises(DomainError):
                factorize(bad)


def test_factorize_memo_is_bounded_and_matches_the_bare_function():
    assert factorize(360) is factorize(360)
    assert factorize(999_999_999_989) is factorize(999_999_999_989)
    assert factorize.cache_info().maxsize == _FACTORIZE_MEMO
    for n in range(2, 2000):
        got, want = factorize(n), factorize.__wrapped__(n)
        assert got == want and got is not want
        assert (got.is_squarefree, got.omega, got.big_omega) == (
            want.is_squarefree, want.omega, want.big_omega
        )
    assert factorize.cache_info().currsize <= _FACTORIZE_MEMO


def test_factorize_large_semiprime():
    # 999999999989 is prime (fits under the cap)
    f = factorize(999_999_999_989)
    assert f.factors == ((999_999_999_989, 1),)
    g = factorize(1_000_003 * 999_983)
    assert g.factors == ((999_983, 1), (1_000_003, 1))


def test_idempotents_examples():
    assert list(idempotents(12)) == [0, 1, 4, 9]
    assert list(idempotents(6)) == [0, 1, 3, 4]
    assert list(idempotents(2)) == [0, 1]
    assert list(idempotents(97)) == [0, 1]


def test_idempotents_against_brute():
    for n in range(2, 400):
        assert list(idempotents(n)) == brute_idempotents(n)


def test_idempotents_count_is_power_of_two():
    for n in range(2, 600):
        E = idempotents(n)
        assert len(E) == 1 << factorize(n).omega


def test_idempotent_set_membership():
    E = idempotents(12)
    assert 4 in E
    assert 9 in E
    assert 5 not in E
    assert len(E) == 4
    assert _idempotent_mask(12) == (1 << 0) | (1 << 1) | (1 << 4) | (1 << 9)


def test_idempotents_at_max_n_build_no_mask_until_asked():
    E = idempotents(10**12)
    assert list(E) == [0, 1, 81787109376, 918212890625]
    assert 918212890625 in E and 2 not in E and -1 not in E
    # a plain tuple: only _idempotent_mask builds the width-n mask, which
    # at n = 10^12 would need over 100 GB
    assert type(E) is tuple


def test_is_idempotent():
    assert is_idempotent(9, 12)
    assert is_idempotent(21, 12)  # reduced mod 12 -> 9
    assert not is_idempotent(5, 12)
    assert is_idempotent(0, 7)
    assert is_idempotent(1, 7)
    with pytest.raises(DomainError):
        is_idempotent(3, 1)


def test_crt_combine_examples():
    assert crt_combine([(1, 3), (3, 5)]) == 13
    assert crt_combine([(1, 4), (0, 9)]) == 9
    assert crt_combine([(2, 7)]) == 2
    with pytest.raises(DomainError):
        crt_combine([(1, 4), (1, 6)])  # moduli share a factor
    with pytest.raises(DomainError):
        crt_combine([])


def test_crt_combine_reduces_residues():
    assert crt_combine([(4, 3), (8, 5)]) == crt_combine([(1, 3), (3, 5)])


def test_lift_to_unit_examples():
    f = factorize(15)
    assert lift_to_unit(10, f) == 1
    assert lift_to_unit(3, f) == 13
    assert lift_to_unit(7, f) == 7  # already a unit
    with pytest.raises(DomainError):
        lift_to_unit(3, factorize(12))  # 12 not squarefree


def test_lift_to_unit_agrees_at_coprime_primes():
    from math import gcd

    for n in (6, 10, 15, 30, 42, 70, 105):
        f = factorize(n)
        for a in range(n):
            u = lift_to_unit(a, f)
            assert gcd(u, n) == 1
            for p, _ in f.factors:
                if a % p != 0:
                    assert u % p == a % p
                else:
                    assert u % p == 1


def test_lift_to_unit_matches_the_crt_lift_at_every_residue():
    # the lift built prime by prime, as its definition reads
    for n in range(2, 301):
        f = factorize(n)
        if not f.is_squarefree:
            continue
        for a in range(n):
            want = crt_combine([(1 if a % p == 0 else a, p) for p, _ in f.factors])
            assert lift_to_unit(a, f) == want, (n, a)


def test_factorization_is_frozen():
    f = factorize(12)
    assert isinstance(f, Factorization)
    with pytest.raises(Exception):
        f.n = 13
