"""Independent brute-force reference implementations used as test oracles.

Everything here favors obviousness over speed: plain loops, explicit
enumeration of all 2^len - 1 index subsets, no bitsets, no memoization,
no pruning beyond what the definitions force.  Only usable at tiny
scales; the test files pin the scales.  Nothing imports the package
under test, except the two _searched_* helpers at the end: they are no
oracles but the package's own full search, galloping up to the
strict-growth ceiling with no theorem's ceiling, so that tests check a
theorem's value against the search instead of against itself.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import gcd


def brute_idempotents(n: int) -> list[int]:
    return [a for a in range(n) if (a * a) % n == a]


def brute_product_set(terms, n: int) -> set[int]:
    """Products over every nonempty index subset (duplicates and all)."""
    out = set()
    idx = range(len(terms))
    for size in range(1, len(terms) + 1):
        for combo in combinations(idx, size):
            p = 1
            for i in combo:
                p = (p * terms[i]) % n
            out.add(p)
    return out


def brute_is_free(terms, n: int) -> bool:
    return not (brute_product_set(terms, n) & set(brute_idempotents(n)))


def brute_is_product_one_free(terms, n: int) -> bool:
    return 1 not in brute_product_set(terms, n)


def brute_davenport(n: int) -> int:
    """Smallest l such that every length-l unit sequence has a
    product-one subsequence.  Grows one length at a time."""
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    length = 0
    while True:
        candidates = combinations_with_replacement(units, length + 1)
        if not any(brute_is_product_one_free(t, n) for t in candidates):
            return length + 1
        length += 1


def brute_eb(n: int) -> int:
    """Smallest l such that every length-l residue sequence has a
    subsequence with idempotent product."""
    length = 0
    while True:
        candidates = combinations_with_replacement(range(n), length + 1)
        if not any(brute_is_free(t, n) for t in candidates):
            return length + 1
        length += 1


def brute_max_free_multisets(n: int) -> list[tuple[int, ...]]:
    """All maximum-length idempotent-product-free multisets mod n."""
    best: list[tuple[int, ...]] = [()]
    length = 1
    while True:
        found = [
            t
            for t in combinations_with_replacement(range(n), length)
            if brute_is_free(t, n)
        ]
        if not found:
            return best
        best = found
        length += 1


def brute_max_product_one_free_multisets(n: int) -> list[tuple[int, ...]]:
    """All maximum-length product-one-free unit multisets mod n."""
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    best: list[tuple[int, ...]] = [()]
    length = 1
    while True:
        found = [
            t
            for t in combinations_with_replacement(units, length)
            if brute_is_product_one_free(t, n)
        ]
        if not found:
            return best
        best = found
        length += 1


def brute_product_one_subsequence(terms, n: int):
    """Minimum-length, then lexicographically smallest sub-multiset with
    product 1 mod n; None if no subset multiplies to 1."""
    terms = sorted(terms)
    idx = range(len(terms))
    for size in range(1, len(terms) + 1):
        hits = set()
        for combo in combinations(idx, size):
            p = 1
            for i in combo:
                p = (p * terms[i]) % n
            if p == 1:
                hits.add(tuple(terms[i] for i in combo))
        if hits:
            return min(hits)
    return None


def brute_unit_orders(n: int) -> dict[int, int]:
    orders = {}
    for a in range(1, n):
        if gcd(a, n) != 1:
            continue
        t, x = 1, a % n
        while x != 1:
            x = (x * a) % n
            t += 1
        orders[a] = t
    return orders


def shape_order_multiset(invariant_factors) -> list[int]:
    """Element orders of the abstract group Z_d1 x ... x Z_ds."""
    from itertools import product
    from math import lcm

    orders = []
    for tup in product(*(range(d) for d in invariant_factors)):
        o = 1
        for x, d in zip(tup, invariant_factors):
            o = lcm(o, d // gcd(x, d))
        orders.append(o)
    return sorted(orders) if invariant_factors else [1]


def _searched_davenport(n: int):
    """D((Z/nZ)^x) by the full search: the gallop from the classical
    formula up to phi(n), where davenport_exact stops at a theorem's value."""
    from ebmod.davenport import davenport_formula_bound
    from ebmod.search import SearchBudget, longest_free
    from ebmod.unitgroup import totient, unit_group_shape, units

    phi = totient(n)
    formula = davenport_formula_bound(unit_group_shape(n))
    return longest_free(n, units(n), 1 << 1, phi - 1, formula, phi, SearchBudget())


def _searched_eb(n: int, floor: int):
    """I(n) by the full search: the gallop from floor up to the
    strict-growth ceiling, where eb_exact stops at the theorem's value in
    the proved classes."""
    from ebmod.arith import factorize, idempotents
    from ebmod.search import SearchBudget, longest_free

    cap = n - (1 << factorize(n).omega)
    return longest_free(
        n, range(n), idempotents(n).mask, cap, floor, cap + 1, SearchBudget()
    )
