"""Structure of the unit group (Z/nZ)^x.

Units are always handled as concrete residues multiplied mod n; the
abstract shape (invariant factors) is computed only to feed formulas and
cross-checks, never as a search substrate — that keeps every witness
directly verifiable without discrete logarithms.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import Factorization, factorize
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

