"""Multiset sequences over Z_n and their subsequence-product sets.

A sequence here is an unordered finite multiset of residues; iteration
is always in nondecreasing residue order (the canonical form), which is
what makes witnesses and tie-breaks deterministic.

The product set of T is the set of pi(W) over all nonempty sub-multisets
W of T.  It is computed by the closure step

    S  ->  S | {a} | {s*a mod n : s in S}

one term at a time and represented as a width-n bit vector: the closure
step is then a scan-and-or.  It is the independent code path that
certify checks witnesses through; the search engine builds its own
per-candidate image tables and never calls it.  The product-one DP
behind find_product_one_subsequence and the extractors works on units
alone, so its masks are phi(n) bits wide, indexed by the exponent
vectors of unitgroup.log_index.

The empty product is deliberately NOT 1 here: pi() of the empty sequence
is a domain error, so "nonempty subsequence" is enforced by types rather
than caller discipline.
"""
from __future__ import annotations

from math import gcd

from .arith import idempotents
from .errors import DomainError
from .unitgroup import log_index


class ResidueSequence:
    """Finite multiset of residues mod n, held as the sorted tuple of its
    terms, each normalized to [0, n)."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        if n < 2:
            raise DomainError(f"modulus must be >= 2, got {n}")
        self.n = n
        self._terms = tuple(sorted(t % n for t in terms))

    def as_tuple(self) -> tuple[int, ...]:
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResidueSequence)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self._terms))

    def __repr__(self) -> str:
        return f"ResidueSequence({self.n}, {self.as_tuple()})"


def _closure_step(mask: int, a: int, n: int) -> int:
    """One term added: S -> S | {a} | S*a."""
    img = 1 << a
    m = mask
    while m:
        low = m & -m
        img |= 1 << ((low.bit_length() - 1) * a % n)
        m ^= low
    return mask | img


def _idempotent_mask(n: int) -> int:
    """Width-n bit mask of the idempotents mod n, for the closure checks
    here and in certify (at n near MAX_N it would take over 100 GB)."""
    return sum(1 << e for e in idempotents(n))


def pi(T: ResidueSequence) -> int:
    """Product of all terms mod n; empty sequence is a domain error."""
    if len(T) == 0:
        raise DomainError("pi of the empty sequence is undefined")
    p = 1
    for a in T:
        p = p * a % T.n
    return p


def product_set(T: ResidueSequence) -> int:
    """Set of products over all nonempty sub-multisets of T, as a
    width-n bit mask (bit a set iff a is such a product)."""
    mask = 0
    for a in T:
        mask = _closure_step(mask, a, T.n)
    return mask


def is_idempotent_product_free(T: ResidueSequence) -> bool:
    """True iff product_set(T) avoids every idempotent.  Early exit on
    the first idempotent product."""
    E = _idempotent_mask(T.n)
    mask = 0
    for a in T:
        mask = _closure_step(mask, a, T.n)
        if mask & E:
            return False
    return True


def _translations(values, index: dict[int, int], orders: tuple[int, ...]):
    """Multiplication by each unit of values on product-set masks in the
    coordinates index and orders of unitgroup.log_index, as a pair
    (shifts, up).

    Along an invariant factor of order d and stride st, multiplying by a
    unit whose exponent there is s moves an element with exponent
    e < d - s up by s*st and wraps the rest down by (d - s)*st.  shifts
    holds one (low, s*st, (d - s)*st) triple per inner factor with s != 0,
    low masking the elements that move up.  The last factor (the only one
    of a cyclic group) is the most significant coordinate, so along it
    the move is a rotation of the whole phi(n)-bit mask by up.
    """
    full = (1 << len(index)) - 1
    inner = []  # (order, stride, repunit with period order * stride)
    st = 1
    for d in orders[:-1]:
        inner.append((d, st, full // ((1 << d * st) - 1)))
        st *= d
    out = {}
    for v in values:
        if v in out:
            continue
        x, shifts = index[v], []
        for d, st_i, rep in inner:
            s = x // st_i % d
            if s:
                down = (d - s) * st_i
                shifts.append((((1 << down) - 1) * rep, s * st_i, down))
        out[v] = shifts, x - x % st
    return [out[v] for v in values]


def _min_product_one_pick(pairs, n: int):
    """Smallest product-one selection from (sort_key, unit) pairs.

    pairs must be sorted by sort_key.  Returns the list of chosen pairs
    minimizing length first, then lexicographic order of the sort keys,
    or None when no nonempty selection has unit product 1.

    Level j of the table holds, per suffix start, the set of products
    achievable by choosing exactly j of the remaining units, as a
    phi(n)-bit mask over the exponent vectors of unitgroup.log_index
    (the identity is bit 0).  Multiplying a set by a unit translates it,
    one shift pair per invariant factor, so the table costs
    O(levels * L * rank) shifts of phi(n)-bit masks.
    """
    L = len(pairs)
    values = [v for _, v in pairs]
    index, orders = log_index(n)
    phi = len(index)
    full = (1 << phi) - 1
    moves = _translations(values, index, orders)
    levels = [[1] * (L + 1)]  # j = 0: only the empty product
    target_level = None
    for j in range(1, L + 1):
        prev = levels[j - 1]
        cur = [0] * (L + 1)
        acc = 0
        for start in range(L - 1, -1, -1):
            m = prev[start + 1]
            shifts, up = moves[start]
            for low, a, b in shifts:
                kept = m & low
                m = kept << a | (m ^ kept) >> b
            if up:
                # kept apart from the masked shift pairs: folded into them
                # it slowed perfbench extract-threshold (2-core Xeon) 0.56 ->
                # 0.64 s wall_norm_s, p99 0.34 -> 0.40 ms, on 6 of 6 pairs
                m = (m << up | m >> phi - up) & full
            acc |= m
            cur[start] = acc
        levels.append(cur)
        if acc & 1:
            target_level = j
            break
    if target_level is None:
        return None
    # walk forward, including the earliest (smallest) pair whenever the
    # remainder stays feasible: that is the lex-smallest selection
    chosen = []
    start, j, need = 0, target_level, 1
    while j > 0:
        rest = need * pow(values[start], -1, n) % n
        if levels[j - 1][start + 1] >> index[rest] & 1:
            chosen.append(pairs[start])
            need = rest
            j -= 1
        start += 1
    return chosen


def find_product_one_subsequence(T: ResidueSequence):
    """Nonempty sub-multiset of T with product 1 mod n, or None.

    All terms must be units.  Among all such sub-multisets the shortest
    is returned, ties broken by lexicographically smallest canonical
    form.

    The first call per n builds unitgroup.log_index(n) in O(phi(n)) time
    and memory, kept for the life of the process, so a short sequence
    over a large n pays for the whole unit group: four units mod 1000003
    take about 0.6 s on a Xeon core.
    """
    n = T.n
    for a in T:
        if gcd(a, n) != 1:
            raise DomainError(f"term {a} is not coprime to {n}")
    pairs = [(a, a) for a in T]
    picked = _min_product_one_pick(pairs, n)
    if picked is None:
        return None
    return ResidueSequence(n, [v for _, v in picked])


def parse_sequence_literal(text: str, n: int, reduce: bool = False) -> ResidueSequence:
    """Parse "5,7,2" into a sequence mod n.  Values outside [0, n) are
    rejected unless reduce is set."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    text = text.strip()
    if not text:
        return ResidueSequence(n, ())
    terms = []
    for part in text.split(","):
        part = part.strip()
        try:
            t = int(part)
        except ValueError:
            raise DomainError(f"bad sequence term {part!r}") from None
        if not reduce and not 0 <= t < n:
            raise DomainError(
                f"term {t} outside [0, {n}); pass --reduce to reduce mod n"
            )
        terms.append(t)
    return ResidueSequence(n, terms)


def format_sequence(T: ResidueSequence) -> str:
    """Canonical comma-separated form, empty string for the empty one."""
    return ",".join(str(a) for a in T)
