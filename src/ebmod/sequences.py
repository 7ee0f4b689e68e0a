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
vectors of unitgroup.log_index.  Its cost follows the length of its
answer: a term equal to 1 is the answer on its own, returned before the
DP builds the index or any level; otherwise level 1 costs L lookups for
L terms, the translation that multiplies a mask by a unit is built when
a level first multiplies by that unit, and the last level stops at the
first suffix whose products hold the identity, so a short answer
translates by a few units only.

The empty product is deliberately NOT 1 here: pi() of the empty sequence
is a domain error, so "nonempty subsequence" is enforced by types rather
than caller discipline.
"""
from __future__ import annotations

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

    @classmethod
    def _canonical(cls, n: int, terms) -> ResidueSequence:
        """Sequence of terms already reduced mod n and sorted, kept as
        they are: a sub-list of another sequence's terms, in its order."""
        T = cls.__new__(cls)
        T.n = n
        T._terms = tuple(terms)
        return T

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


def _translations(index: dict[int, int], orders: tuple[int, ...]):
    """Multiplication by a unit on product-set masks in the coordinates
    index and orders of unitgroup.log_index, as move(v), which returns
    the pair (shifts, up) for the unit v, built on its first use and kept
    for the life of move.

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
    top = 1  # the stride of the last factor
    for d in orders[:-1]:
        inner.append((d, top, full // ((1 << d * top) - 1)))
        top *= d
    built = {}

    def move(v: int):
        pair = built.get(v)
        if pair is None:
            x, shifts = index[v], []
            for d, st, rep in inner:
                s = x // st % d
                if s:
                    down = (d - s) * st
                    shifts.append((((1 << down) - 1) * rep, s * st, down))
            built[v] = pair = shifts, x - x % top
        return pair

    return move


def _min_product_one_pick(pairs, n: int):
    """Smallest product-one selection from (sort_key, unit) pairs.

    pairs must be sorted by sort_key.  Returns the list of chosen pairs
    minimizing length first, then lexicographic order of the sort keys,
    or None when no nonempty selection has unit product 1.

    A unit equal to 1 is an answer of length one, and the first such
    pair the lex-smallest: it is returned at once, before
    unitgroup.log_index is called or any level built.  Otherwise level j
    of the table holds, per suffix start, the set of products achievable
    by choosing exactly j of the remaining units, as a phi(n)-bit mask
    over the exponent vectors of unitgroup.log_index (the identity is
    bit 0).  Level 1 is the suffix union of the units' own bits, L
    lookups, and misses the identity.  From level 2 on, multiplying a
    set by a unit translates it, one shift pair per invariant factor, and
    each level costs O(L * rank) shifts of phi(n)-bit masks.  The walk
    back reads levels below the answer's only, so the last level stops
    at the first start whose suffix union holds the identity and is
    never stored.  A unit's translation is built at the first start a
    level reaches it, so when level 2 stops after a few starts, as it
    does at a length-2 answer, the units at the starts it never reaches
    are never translated.
    """
    L = len(pairs)
    values = [v for _, v in pairs]
    if 1 in values:
        return [pairs[values.index(1)]]
    index, orders = log_index(n)
    phi = len(index)
    full = (1 << phi) - 1
    levels = [None]  # levels[j] for j >= 1; the walk needs no level 0
    cur, acc = [0] * (L + 1), 0
    for start in range(L - 1, -1, -1):  # j = 1: each unit on its own
        acc |= 1 << index[values[start]]
        cur[start] = acc
    move = _translations(index, orders)
    j = 1
    while not acc & 1:
        if j >= L:
            return None
        levels.append(cur)
        prev, cur, acc = cur, [0] * (L + 1), 0
        for start in range(L - 1, -1, -1):
            m = prev[start + 1]
            shifts, up = move(values[start])
            for low, a, b in shifts:
                kept = m & low
                m = kept << a | (m ^ kept) >> b
            if up:
                # kept apart from the masked shift pairs: folded into them
                # it slowed perfbench extract-threshold (2-core Xeon) 0.36 ->
                # 0.39 s wall_norm_s, p99 0.20 -> 0.23 ms, on 3 of 3 pairs
                m = (m << up | m >> phi - up) & full
            acc |= m
            if acc & 1:
                break
            cur[start] = acc
        j += 1
    # walk forward, including the earliest (smallest) pair whenever the
    # remainder stays feasible: that is the lex-smallest selection
    chosen = []
    start, need = 0, 1
    while j > 1:
        rest = need * pow(values[start], -1, n) % n
        if levels[j - 1][start + 1] >> index[rest] & 1:
            chosen.append(pairs[start])
            need = rest
            j -= 1
        start += 1
    # level 0 holds the empty product alone: the last pick is the first
    # unit left that equals the remainder
    chosen.append(pairs[values.index(need, start)])
    return chosen


def find_product_one_subsequence(T: ResidueSequence):
    """Nonempty sub-multiset of T with product 1 mod n, or None.

    All terms must be units.  Among all such sub-multisets the shortest
    is returned, ties broken by lexicographically smallest canonical
    form.

    The first call per n builds unitgroup.log_index(n) in O(phi(n)) time
    and memory, kept for the life of the process, so a short sequence
    over a large n pays for the whole unit group: four units mod 1000003
    take about 0.6 s on a Xeon core.  A term is a unit exactly when that
    map holds it.
    """
    n = T.n
    index, _ = log_index(n)
    terms = T.as_tuple()
    if not all(map(index.__contains__, terms)):
        a = next(a for a in terms if a not in index)
        raise DomainError(f"term {a} is not coprime to {n}")
    picked = _min_product_one_pick(list(zip(terms, terms)), n)
    if picked is None:
        return None
    return ResidueSequence._canonical(n, [v for _, v in picked])


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
