"""Structure of the unit group (Z/nZ)^x.

Units are always handled as concrete residues multiplied mod n; the
abstract shape (invariant factors) is computed only to feed formulas and
cross-checks, never as a search substrate — that keeps every witness
directly verifiable without discrete logarithms.  invariant_generators
names one concrete unit per invariant factor, for the classical
construction of a product-one-free sequence.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import Factorization, crt_combine, factorize
from .errors import DomainError, InconsistencyError


def totient(f: Factorization | int) -> int:
    """Euler phi, from the factorization."""
    if isinstance(f, int):
        f = factorize(f)
    out = 1
    for p, k in f.factors:
        out *= p ** (k - 1) * (p - 1)
    return out


def units(n: int) -> list[int]:
    """Sorted residues in [1, n) coprime to n."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return [a for a in range(1, n) if gcd(a, n) == 1]


@dataclass(frozen=True)
class GroupShape:
    """Invariant-factor form d_1 | d_2 | ... | d_s of a finite abelian
    group; empty for the trivial group."""

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _merge_invariant_factors(orders) -> tuple[int, ...]:
    """Fold a multiset of cyclic orders into invariant-factor form by
    repeated (a, b) -> (gcd, lcm) normalization."""
    ds = sorted(d for d in orders if d > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                if b % a:
                    g = gcd(a, b)
                    ds[i], ds[j] = g, a * b // g
                    changed = True
        ds = sorted(d for d in ds if d > 1)
    return tuple(ds)


def unit_group_shape(f: Factorization | int) -> GroupShape:
    """Shape of (Z/nZ)^x: odd p^k contributes a cyclic factor of order
    p^(k-1)(p-1); 2 nothing; 4 a C2; 2^k (k >= 3) a C2 x C_{2^(k-2)}."""
    if isinstance(f, int):
        f = factorize(f)
    cyclic: list[int] = []
    for p, k in f.factors:
        if p == 2:
            if k == 2:
                cyclic.append(2)
            elif k >= 3:
                cyclic.append(2)
                cyclic.append(2 ** (k - 2))
        else:
            cyclic.append(p ** (k - 1) * (p - 1))
    shape = GroupShape(invariant_factors=_merge_invariant_factors(cyclic))
    if shape.order != totient(f):
        raise InconsistencyError(
            f"shape order {shape.order} != phi({f.n}) = {totient(f)}"
        )  # unreachable
    return shape


def _component_generators(p: int, k: int) -> list[tuple[int, int]]:
    """(generator, order) pairs whose cyclic groups multiply directly to
    (Z/p^kZ)^x: the least primitive root for odd p, -1 mod 4, and -1 and
    5 mod 2^k for k >= 3."""
    q = p ** k
    if p == 2:
        if k == 1:
            return []
        return [(q - 1, 2)] + ([(5, 2 ** (k - 2))] if k >= 3 else [])
    phi = q // p * (p - 1)
    primes = [r for r, _ in factorize(phi).factors]
    g = next(
        g
        for g in range(2, q)
        if g % p and all(pow(g, phi // r, q) != 1 for r in primes)
    )
    return [(g, phi)]


def invariant_generators(f: Factorization | int) -> tuple[tuple[int, int], ...]:
    """Units (g_1, d_1), ..., (g_s, d_s) with d_1 | ... | d_s the invariant
    factors of (Z/nZ)^x and the group the direct product of the cyclic
    groups <g_i> of order d_i.

    Each component p^k of n contributes its cyclic generators, lifted by
    CRT to 1 at the other components.  A lift x of order m splits into
    the parts x^(m / r^e), one of order r^e per prime power r^e || m;
    cyclic groups of coprime orders multiply to a cyclic group, so the
    generator of the j-th largest invariant factor is the product, over
    every prime r, of the j-th largest r-part, and its order the product
    of theirs.
    """
    if isinstance(f, int):
        f = factorize(f)
    n = f.n
    parts: dict[int, list[tuple[int, int]]] = {}  # prime r -> [(r^e, unit)]
    for p, k in f.factors:
        q = p ** k
        for g, m in _component_generators(p, k):
            x = crt_combine([(g, q), (1, n // q)])
            for r, e in factorize(m).factors:
                parts.setdefault(r, []).append((r ** e, pow(x, m // r ** e, n)))
    gens = [[1, 1] for _ in range(max(map(len, parts.values()), default=0))]
    for ranked in parts.values():
        for gen, (order, y) in zip(gens, sorted(ranked, reverse=True)):
            gen[0], gen[1] = gen[0] * y % n, gen[1] * order
    out = tuple((g, d) for g, d in reversed(gens))
    if tuple(d for _, d in out) != unit_group_shape(f).invariant_factors:
        raise InconsistencyError(
            f"generator orders {out} disagree with the shape of (Z/{n}Z)^x"
        )  # unreachable
    return out
