from __future__ import annotations

from ebmod.arith import factorize
from ebmod.unitgroup import (
    GroupShape,
    invariant_generators,
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
    assert totient(12) == 4
    assert totient(97) == 96


def test_unit_group_shape_examples():
    assert unit_group_shape(factorize(12)).invariant_factors == (2, 2)
    assert unit_group_shape(factorize(8)).invariant_factors == (2, 2)
    assert unit_group_shape(factorize(5)).invariant_factors == (4,)
    assert unit_group_shape(factorize(2)).invariant_factors == ()
    assert unit_group_shape(factorize(4)).invariant_factors == (2,)
    assert unit_group_shape(factorize(16)).invariant_factors == (2, 4)
    assert unit_group_shape(factorize(35)).invariant_factors == (2, 12)
    assert unit_group_shape(factorize(24)).invariant_factors == (2, 2, 2)


def test_shape_divisibility_chain_and_order():
    for n in range(2, 500):
        f = factorize(n)
        shape = unit_group_shape(f)
        ds = shape.invariant_factors
        assert all(d >= 2 for d in ds)
        assert all(ds[i + 1] % ds[i] == 0 for i in range(len(ds) - 1))
        assert shape.order == totient(f)


def test_shape_matches_element_order_multiset():
    # the multiset of element orders determines the abstract group
    for n in range(2, 201):
        shape = unit_group_shape(factorize(n))
        assert sorted(brute_unit_orders(n).values()) == shape_order_multiset(
            shape.invariant_factors
        )


def test_element_order_divides_exponent():
    for n in (12, 16, 24, 35, 36, 97, 100):
        exponent = unit_group_shape(factorize(n)).invariant_factors[-1]
        for order in brute_unit_orders(n).values():
            assert exponent % order == 0


def test_group_shape_properties():
    s = GroupShape(invariant_factors=(2, 12))
    assert s.order == 24
    assert s.rank == 2
    t = GroupShape(invariant_factors=())
    assert t.order == 1
    assert t.rank == 0


def test_invariant_generators_span_the_unit_group_directly():
    # g_i has order d_i, and the products g_1^a_1 ... g_s^a_s with
    # 0 <= a_i < d_i are phi(n) distinct units: a direct product
    for n in range(2, 301):
        gens = invariant_generators(n)
        assert tuple(d for _, d in gens) == unit_group_shape(n).invariant_factors
        orders = brute_unit_orders(n)
        reached = {1}
        for g, d in gens:
            assert orders[g] == d
            reached = {x * pow(g, a, n) % n for x in reached for a in range(d)}
        assert len(reached) == totient(n)


def test_invariant_generators_examples():
    assert invariant_generators(2) == ()
    assert invariant_generators(5) == ((2, 4),)
    assert invariant_generators(8) == ((5, 2), (7, 2))
    assert invariant_generators(16) == ((15, 2), (5, 4))  # -1 and 5
