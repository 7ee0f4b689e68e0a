from __future__ import annotations

from math import prod

from ebmod.arith import factorize
from ebmod.unitgroup import (
    invariant_generators,
    log_index,
    totient,
    unit_group_shape,
    units,
)

from oracles import brute_unit_orders, shape_order_multiset


def test_units_examples():
    assert units(12) == [1, 5, 7, 11]
    assert units(2) == [1]
    assert units(5) == [1, 2, 3, 4]


def test_units_count_is_totient():
    for n in (2, 3, 4, 12, 36, 97, 360, 1024):
        assert len(units(n)) == totient(factorize(n))


def test_totient_values():
    assert totient(factorize(1_000_000)) == 400_000
    assert totient(factorize(12)) == 4
    assert totient(factorize(97)) == 96


def test_unit_group_shape_examples():
    assert unit_group_shape(factorize(12)) == (2, 2)
    assert unit_group_shape(factorize(8)) == (2, 2)
    assert unit_group_shape(factorize(5)) == (4,)
    assert unit_group_shape(factorize(2)) == ()
    assert unit_group_shape(factorize(4)) == (2,)
    assert unit_group_shape(factorize(16)) == (2, 4)
    assert unit_group_shape(factorize(35)) == (2, 12)
    assert unit_group_shape(factorize(24)) == (2, 2, 2)


def test_shape_divisibility_chain_and_order():
    for n in range(2, 500):
        f = factorize(n)
        ds = unit_group_shape(f)
        assert all(d >= 2 for d in ds)
        assert all(ds[i + 1] % ds[i] == 0 for i in range(len(ds) - 1))
        assert prod(ds) == totient(f)


def test_shape_matches_element_order_multiset():
    # the multiset of element orders determines the abstract group
    for n in range(2, 201):
        shape = unit_group_shape(factorize(n))
        assert sorted(brute_unit_orders(n).values()) == shape_order_multiset(shape)


def test_element_order_divides_exponent():
    for n in (12, 16, 24, 35, 36, 97, 100):
        exponent = unit_group_shape(factorize(n))[-1]
        for order in brute_unit_orders(n).values():
            assert exponent % order == 0


def test_invariant_generators_span_the_unit_group_directly():
    # g_i has order d_i, and the products g_1^a_1 ... g_s^a_s with
    # 0 <= a_i < d_i are phi(n) distinct units: a direct product
    for n in range(2, 301):
        f = factorize(n)
        gens = invariant_generators(f)
        assert tuple(d for _, d in gens) == unit_group_shape(f)
        orders = brute_unit_orders(n)
        reached = {1}
        for g, d in gens:
            assert orders[g] == d
            reached = {x * pow(g, a, n) % n for x in reached for a in range(d)}
        assert len(reached) == totient(f)


def test_invariant_generators_examples():
    assert invariant_generators(factorize(2)) == ()
    assert invariant_generators(factorize(5)) == ((2, 4),)
    assert invariant_generators(factorize(8)) == ((5, 2), (7, 2))
    assert invariant_generators(factorize(16)) == ((15, 2), (5, 4))  # -1 and 5


def _exponents(i: int, orders) -> list[int]:
    out = []
    for d in orders:
        out.append(i % d)
        i //= d
    return out


def test_log_index_is_a_group_isomorphism_onto_exponent_vectors():
    # flat index sum e_i * stride_i of prod g_i^e_i, one per unit, and a
    # product of units adds exponent vectors mod the orders
    for n in (2, 4, 8, 15, 16, 24, 63, 105, 120, 169, 240):
        f = factorize(n)
        index, orders = log_index(n)
        gens = invariant_generators(f)
        assert orders == tuple(d for _, d in gens)
        assert sorted(index) == units(n)
        assert sorted(index.values()) == list(range(totient(f)))
        assert index[1] == 0
        for u, i in index.items():
            powers = (pow(g, e, n) for (g, _), e in zip(gens, _exponents(i, orders)))
            assert prod(powers) % n == u
        some = units(n)[:12]
        for a in some:
            for b in some:
                ea, eb = _exponents(index[a], orders), _exponents(index[b], orders)
                want = [(x + y) % d for x, y, d in zip(ea, eb, orders)]
                assert _exponents(index[a * b % n], orders) == want


def test_log_index_is_built_once_per_n():
    assert log_index(91) is log_index(91)
