from __future__ import annotations

from ebmod.arith import factorize
from ebmod.unitgroup import (
    GroupShape,
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
