"""Integer arithmetic layer: factorization, CRT, idempotents of Z_n.

The rest of the package leans on one structural fact: a residue a is
idempotent mod n = p_1^{k_1} ... p_r^{k_r} exactly when a is congruent
to 0 or 1 modulo every p_i^{k_i}.  Hence there are exactly 2^omega(n)
idempotents, one per choice vector in {0,1}^r, and they can be built by
the Chinese Remainder Theorem instead of scanning [0, n).

For squarefree n there is additionally a canonical coprime companion of
any residue a: keep a at the primes not dividing a, replace it by 1 at
the rest.  That lift is what makes the squarefree witness extractor
work.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .errors import DomainError, InconsistencyError

# Declared input bound for factorize: trial division to sqrt(n) stays
# comfortable on a desk machine up to here.
MAX_N = 10**12

# Moduli factorize remembers, least recently used dropped first: a scan
# row asks for n, phi of its prime-power components and the orders of
# their generators, and an extractor stream for its few moduli each call.
_FACTORIZE_MEMO = 256

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# mod-30 wheel: gaps between candidate divisors after 7
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; the fixed base set decides every
    m < 3.3e24, far beyond MAX_N."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """n with its ordered prime-power decomposition."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        return sum(k for _, k in self.factors)

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    @cached_property  # read once per term by lift_to_unit
    def is_squarefree(self) -> bool:
        return all(k == 1 for _, k in self.factors)

    def summary(self) -> str:
        return "*".join(
            f"{p}^{k}" if k > 1 else str(p) for p, k in self.factors
        )


@lru_cache(maxsize=_FACTORIZE_MEMO)
def factorize(n: int) -> Factorization:
    """Prime-power decomposition of n.

    Trial division over a mod-30 wheel; once the remaining cofactor
    passes Miller-Rabin the loop stops, so large prime cofactors cost
    nothing.  Every reported prime is re-certified.  Results are
    memoized for the last _FACTORIZE_MEMO moduli, so a repeated n gets
    the same frozen Factorization back; errors are raised afresh.
    """
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    if n > MAX_N:
        raise DomainError(f"factorize supports n <= {MAX_N}, got {n}")
    m = n
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
    p = 7
    gi = 0
    while m > 1:
        if _is_prime(m):
            out.append((m, 1))
            break
        if p * p > m:
            # composite m with no divisor <= sqrt(m) cannot happen
            out.append((m, 1))
            break
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += _WHEEL_GAPS[gi]
        gi = (gi + 1) % 8
    factors = tuple(out)
    # certification: primes increasing, all prime, product restores n
    acc = 1
    last = 1
    for q, k in factors:
        if q <= last or not _is_prime(q):
            raise InconsistencyError(f"factorization of {n} failed certification")
        last = q
        acc *= q**k
    if acc != n:
        raise InconsistencyError(f"factorization of {n} does not recompose")
    return Factorization(n=n, factors=factors)


def is_idempotent(a: int, n: int) -> bool:
    """True iff a*a = a (mod n); a is reduced mod n first."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    a %= n
    return a * a % n == a


def idempotents(n: int) -> tuple[int, ...]:
    """The 2^omega(n) idempotents of Z_n, sorted; CRT over {0,1}^r choices."""
    fact = factorize(n)
    moduli = [p**k for p, k in fact.factors]
    members = set()
    for bits in range(1 << len(moduli)):
        pairs = [((bits >> i) & 1, m) for i, m in enumerate(moduli)]
        members.add(crt_combine(pairs))
    ordered = tuple(sorted(members))
    if len(ordered) != 1 << fact.omega:
        raise InconsistencyError(f"idempotent count for {n} is off")  # unreachable
    return ordered


def crt_combine(pairs) -> int:
    """Unique x mod prod(m_i) with x = r_i (mod m_i); moduli must be
    pairwise coprime.  Residues are reduced into range first."""
    pairs = list(pairs)
    if not pairs:
        raise DomainError("crt_combine needs at least one congruence")
    x, mod = 0, 1
    for r, m in pairs:
        if m < 1:
            raise DomainError(f"modulus must be positive, got {m}")
        r %= m
        g = gcd(mod, m)
        if g != 1:
            raise DomainError(f"moduli not pairwise coprime (gcd {g})")
        # x' = x (mod mod), x' = r (mod m)
        t = (r - x) * pow(mod, -1, m) % m
        x += mod * t
        mod *= m
    return x % mod


def lift_to_unit(a: int, f: Factorization) -> int:
    """Coprime companion of a for squarefree n = f.n: the residue a' with
    a' = 1 (mod p) when p | a, a' = a (mod p) otherwise.

    In closed form: with g = gcd(a, n) and m = n // g (coprime, as n is
    squarefree), a + m * (m^-1 mod g) is a mod every p | m and 1 mod
    every p | g."""
    if not f.is_squarefree:
        raise DomainError(f"lift_to_unit needs squarefree n, got {f.n}")
    n = f.n
    g = gcd(a, n)
    m = n // g
    out = (a + m * pow(m, -1, g)) % n
    if gcd(out, n) != 1:
        raise InconsistencyError(f"lift of {a} mod {n} is not a unit")  # unreachable
    return out
