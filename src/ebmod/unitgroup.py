"""Structure of the unit group (Z/nZ)^x.

The shape (invariant factors) feeds the Davenport formulas and
cross-checks.  invariant_generators names one concrete unit per
invariant factor, for the classical construction of a product-one-free
sequence, and log_index writes every unit as an exponent vector over
those generators: the product-one DP of sequences indexes units by
those vectors, where multiplying by a unit is a translation.  Witnesses
stay residues, multiplied mod n, so checking one needs no discrete
logarithm.  power_automorphisms hands the search engine generators of
the power maps of each CRT component, which permute the elements of a
monoid and fix its idempotents; it reads each element through crt_key,
a residue's images in the components.
"""
from __future__ import annotations

from functools import cache
from math import gcd, prod
from typing import Sequence

from .arith import Factorization, crt_combine, factorize
from .errors import DomainError, InconsistencyError


def totient(f: Factorization) -> int:
    """Euler phi, from the factorization."""
    out = 1
    for p, k in f.factors:
        out *= p ** (k - 1) * (p - 1)
    return out


def units(n: int) -> list[int]:
    """Sorted residues in [1, n) coprime to n."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return [a for a in range(1, n) if gcd(a, n) == 1]


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


def unit_group_shape(f: Factorization) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_s of (Z/nZ)^x, empty for the
    trivial group: odd p^k contributes a cyclic factor of order
    p^(k-1)(p-1); 2 nothing; 4 a C2; 2^k (k >= 3) a C2 x C_{2^(k-2)}."""
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
    shape = _merge_invariant_factors(cyclic)
    if prod(shape) != totient(f):
        raise InconsistencyError(
            f"shape order {prod(shape)} != phi({f.n}) = {totient(f)}"
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


def invariant_generators(f: Factorization) -> tuple[tuple[int, int], ...]:
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
    if tuple(d for _, d in out) != unit_group_shape(f):
        raise InconsistencyError(
            f"generator orders {out} disagree with the shape of (Z/{n}Z)^x"
        )  # unreachable
    return out


@cache
def log_index(n: int) -> tuple[dict[int, int], tuple[int, ...]]:
    """Discrete-log coordinates of (Z/nZ)^x.  With (g_1, d_1), ...,
    (g_s, d_s) its invariant generators, the unit prod g_i^e_i
    (0 <= e_i < d_i) gets the flat index sum e_i * stride_i, where
    stride_i = d_1 * ... * d_(i-1); the identity is index 0.  Returns the
    unit -> index map and (d_1, ..., d_s).
    Built once per n, at O(phi(n)) multiplications."""
    f = factorize(n)
    gens = invariant_generators(f)
    flat = [1]
    for g, d in gens:
        powers = [1]
        for _ in range(d - 1):
            powers.append(powers[-1] * g % n)
        flat = [x * y % n for y in powers for x in flat]
    index = {u: i for i, u in enumerate(flat)}
    if len(index) != totient(f):
        raise InconsistencyError(
            f"exponent vectors of (Z/{n}Z)^x are not one per unit"
        )  # unreachable
    return index, tuple(d for _, d in gens)


def crt_key(r: int, moduli: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """r's image in each component (p, q = p^k) of moduli: r mod q when p
    does not divide r, else gcd(r, q) = p^min(v_p(r), k).  Over the
    q != 2 of n it is r's class in ebconstant's M(n); 0's is no unit's."""
    return tuple(r % q if r % p else gcd(r, q) for p, q in moduli)


def power_automorphisms(f: Factorization, labels: Sequence[int]) -> list[list[int]]:
    """Index permutations of generators of the power maps on the elements
    labelled `labels` mod f.n, each read as its crt_key over the
    components p^k != 2 (the keys must be distinct): the maps that raise
    the unit part of each component to a power e with
    gcd(e, lambda(p^k)) = 1 and fix every other component.  Per
    component, one map per invariant generator e of (Z/lambda(p^k)Z)^x;
    exponents multiply under composition, so these generate every choice
    of exponents.  lambda(2) = 1, so leaving out the component 2 leaves
    out no generator.

    On U(p^k) such a power map is an automorphism, since the exponent is
    invertible mod the group's exponent, and it fixes a non-unit image
    p^j, which a unit times p^j equals; so on the units mod n (with 0)
    and on ebconstant's M(n) each is a monoid automorphism, and it fixes
    the idempotents, whose unit parts are 1."""
    moduli = [(p, p ** k) for p, k in f.factors if p ** k != 2]
    keys = [crt_key(r, moduli) for r in labels]
    where = {key: i for i, key in enumerate(keys)}
    perms = []
    for j, (p, q) in enumerate(moduli):
        # lambda(p^k), the exponent of U(p^k), is its largest invariant
        # factor; (Z/lam Z)^x is trivial for lam <= 2
        lam = max(unit_group_shape(factorize(q)), default=1)
        for e, _ in invariant_generators(factorize(lam)) if lam > 2 else ():
            images = [
                (*key[:j], pow(key[j], e, q) if key[j] % p else key[j], *key[j + 1 :])
                for key in keys
            ]
            perms.append([where[image] for image in images])
    return perms
