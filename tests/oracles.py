"""Independent brute-force reference implementations used as test oracles.

Everything here favors obviousness over speed: plain loops, explicit
enumeration of all 2^len - 1 index subsets, no bitsets, no memoization,
no pruning beyond what the definitions force.  Only usable at tiny
scales; the test files pin the scales.  Nothing imports the package
under test, except the helpers at the end: the two _searched_* are no
oracles but the package's own engine on the residues themselves (the
identity labelling of residue_monoid), galloping up to the strict-growth
ceiling with no theorem's ceiling, so that tests check a theorem's value,
and the quotient monoid eb_exact searches, against an independent
search instead of against themselves.

One reference is a DP, not a brute force: bitscan_product_one_pick is
the product-one DP over width-n residue masks, multiplying a set by a
unit one set bit at a time.  The package runs the same DP in
exponent-vector coordinates, and tests compare the two selections at
sizes the brute force cannot reach.  gcd_lcm_shape is no brute force
either: it folds the textbook cyclic orders of each U(p^k) into
invariant factors, so tests reach moduli whose units cannot be listed.
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


def brute_extends(terms, pool, r: int, n: int, is_free) -> bool:
    """Does the free sequence terms extend by r more terms from pool
    to a sequence is_free accepts?  Tries every r-multiset of pool."""
    return any(
        is_free(tuple(terms) + extra, n)
        for extra in combinations_with_replacement(pool, r)
    )


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


def bitscan_product_one_pick(pairs, n: int):
    """The product-one DP over residues: smallest selection from sorted
    (sort_key, unit) pairs, shortest first, then lexicographically
    smallest by sort key, or None.  Level j holds, per suffix start, the
    width-n mask of products of exactly j of the remaining units; a set
    is multiplied by a unit one set bit at a time."""
    L = len(pairs)
    values = [v for _, v in pairs]
    one = 1 << 1
    levels = [[one] * (L + 1)]
    target_level = None
    for j in range(1, L + 1):
        prev = levels[j - 1]
        cur = [0] * (L + 1)
        for start in range(L - 1, -1, -1):
            grown = 0
            m = prev[start + 1]
            v = values[start]
            while m:
                low = m & -m
                grown |= 1 << ((low.bit_length() - 1) * v % n)
                m ^= low
            cur[start] = cur[start + 1] | grown
        levels.append(cur)
        if cur[0] & one:
            target_level = j
            break
    if target_level is None:
        return None
    chosen = []
    start, j, need = 0, target_level, 1
    while j > 0:
        v = values[start]
        rest = need * pow(v, -1, n) % n
        if (levels[j - 1][start + 1] >> rest) & 1:
            chosen.append(pairs[start])
            need = rest
            j -= 1
        start += 1
    return chosen


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


def gcd_lcm_shape(n: int) -> tuple[int, ...]:
    """Invariant factors d_1 | ... | d_s of (Z/nZ)^x: factor n by trial
    division, list the cyclic orders of each U(p^k) (p^(k-1)(p-1) for odd
    p, nothing for 2, 2 for 4, 2 and 2^(k-2) for 2^k with k >= 3), then
    replace any pair (a, b) where a does not divide b by (gcd, lcm) until
    the sorted orders form a divisor chain."""
    from math import lcm

    orders, m, p = [], n, 2
    while m > 1:
        if p * p > m:
            p = m
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if p == 2:
            orders += [2] if k == 2 else [2, 2 ** (k - 2)] if k >= 3 else []
        elif k:
            orders.append(p ** (k - 1) * (p - 1))
        p += 1
    ds = sorted(d for d in orders if d > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                if b % a:
                    ds[i], ds[j] = gcd(a, b), lcm(a, b)
                    changed = True
        ds = sorted(d for d in ds if d > 1)
    return tuple(ds)


def residue_monoid(n: int, forbidden: int, candidates):
    """Z/nZ itself for the package's engine: the identity labelling,
    every residue its own element.  It lists no symmetries and no search
    order, so its searches try every term, on one engine in residue
    order, and stay independent of the automorphisms that prune M(n)
    and the units and of the order M(n)'s refutations run in."""
    from ebmod.search import Monoid

    return Monoid(n, range(n), range(n), forbidden, candidates)


def _searched_davenport(n: int):
    """D((Z/nZ)^x) by the full search over the residues: the gallop from
    the classical formula up to phi(n), where davenport_exact stops at a
    theorem's value, and searches the units alone."""
    from ebmod.arith import factorize
    from ebmod.davenport import davenport_formula_bound
    from ebmod.search import SearchBudget, longest_free
    from ebmod.unitgroup import totient, unit_group_shape, units

    f = factorize(n)
    phi = totient(f)
    formula = davenport_formula_bound(unit_group_shape(f))
    return longest_free(
        n,
        lambda: residue_monoid(n, 1 << 1, units(n)),
        phi - 1,
        formula,
        phi,
        SearchBudget(),
    )


def _searched_eb(n: int, floor: int):
    """I(n) by the full search over the residues: the gallop from floor up
    to the strict-growth ceiling n - 2^omega + 1, where eb_exact searches
    the quotient monoid M(n) and stops at the theorem's value in the
    proved classes."""
    from ebmod.arith import factorize
    from ebmod.search import SearchBudget, longest_free
    from ebmod.sequences import _idempotent_mask

    cap = n - (1 << factorize(n).omega)
    return longest_free(
        n,
        lambda: residue_monoid(n, _idempotent_mask(n), range(n)),
        cap,
        floor,
        cap + 1,
        SearchBudget(),
    )
