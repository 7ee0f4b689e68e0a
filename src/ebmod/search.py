"""Exhaustive search for maximum-length free sequences in a finite
commutative monoid.

Shared engine behind the Davenport constant (forbidden product: 1) and
the idempotent-product constant (forbidden products: every idempotent).
A sequence is *free* when no nonempty sub-multiset has a forbidden
product, i.e. its product set avoids the forbidden bit mask.

The engine sees only the elements 0..size - 1 and a product rule on
them.  Residues appear at one boundary: a caller describes its monoid
as residue classes mod n (a Monoid), element i labelled by the smallest
residue of its class; the engine reads its size, product, forbidden
mask and candidates, and longest_free reads the witness back through
its labels.  Labels increase with the index, so the engine's
lexicographically smallest sequence of elements is the smallest one of
labels.  davenport_exact searches the units, eb_exact the quotient
monoid M(n) of ebconstant; the identity labelling of Z/nZ itself is
what the tests' independent search runs on.

Key facts the engine leans on:

* Canonical order.  Sequences are multisets, so the search enumerates
  only nondecreasing term orders: state is (product-set bitmask, lowest
  candidate index still allowed).

* Strict growth.  Adding a term to a free sequence strictly grows the
  product set (if it didn't, some power of the added term would already
  be an achieved product and idempotent/one, contradicting freeness).
  Hence a free sequence of length L has |product set| >= L, and L can
  never exceed cap = (number of monoid elements that may appear in a
  free product set).  This yields the slack pruning rule
  popcount(S) + r > cap  =>  no r-term extension exists.

* Forbidden-preimage prefilter.  For each candidate a the engine keeps
  bad(a) = {s : s*a is forbidden} as one size-bit mask.  Let S be
  the product set of a free sequence and T = S | {a} | S*a the product
  set after appending a.  Then T meets the forbidden set exactly when
  a is forbidden or S & bad(a) != 0.  Proof: S avoids the forbidden set
  because the sequence is free, so T meets it exactly when {a} or S*a
  does; {a} does iff a is forbidden, and S*a does iff some s in S has
  s*a forbidden, i.e. iff s lies in S and in bad(a).  Forbidden
  candidates can never appear in a free sequence, so the constructor
  drops them, and every remaining candidate is then tested with one
  AND before its image is built.  A surviving candidate with one term
  left to place proves its state outright, without building T.

* Monotone reach.  If state S extends by r further terms, it extends by
  fewer; if it cannot extend by r, it cannot extend by more.  The memo
  therefore stores per state a pair (best r proven reachable, worst r
  proven unreachable) packed into one int, and is shared across all
  probes and the witness reconstruction.

Probing order exploits the cost asymmetry: refuting length r costs
roughly exponential in the slack cap - r, so longest_free gallops
upward from a proven lower bound and pays one refutation, at the true
answer + 1 (the cheapest possible), or none when the answer reaches a
proven upper bound.  That bound is cap unless the caller proves a lower
ceiling (a theorem's value), and the gallop never probes past it.  When
the lower bound already equals the upper one (a theorem's D or a
theorem's I(n)), one confirming probe is the whole search: it walks
the lexicographically smallest path, which the witness then reads from
the memo, and no refutation runs.

longest_free is the one routine that builds and runs an engine, and the
one place the size guards run: on the monoid's size and cap, before the
monoid is built, so the engine it then hands that Monoid runs none.
Both davenport_exact and eb_exact take their value and witness, or the
bracket the search proved when its budget ran out, from it.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, DomainError, InconsistencyError

_LO_SHIFT = 20  # memo packing: hi_true | (lo_false << _LO_SHIFT)
_LO_INIT = (1 << _LO_SHIFT) - 1
_TIME_CHECK_PERIOD = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one exact search.

    max_states caps the memo table (distinct explored states); blowing
    it raises BudgetExceeded, which callers convert into an honest
    undecided verdict.  max_seconds is wall-clock, checked coarsely.
    Both must be >= 0; 0 and inf are legal, NaN is not.
    """

    max_states: int = 1 << 26
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_states < 0:
            raise DomainError(f"max_states must be >= 0, got {self.max_states}")
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise DomainError(f"max_seconds must be >= 0, got {self.max_seconds}")


class Monoid(NamedTuple):
    """A finite commutative monoid of residue classes mod n, as a caller
    hands it to longest_free.  Element i is the class whose smallest
    residue is labels[i], and labels increase with i.  index maps each
    residue that a product of two labels can take to its class, so when
    taking classes is a homomorphism, product() is the monoid's product.
    forbidden masks the forbidden elements; candidates lists the
    elements a sequence may use (the engine drops the forbidden ones)."""

    n: int
    labels: Sequence[int]
    index: Sequence[int]
    forbidden: int
    candidates: Iterable[int]

    def product(self, i: int, j: int) -> int:
        return self.index[self.labels[i] * self.labels[j] % self.n]


def _check_size(size: int, cap: int) -> None:
    """The engine's size guards: BudgetExceeded when a search over `size`
    elements, with every free length at most cap, is out of reach.  They
    read these two numbers only, so they run before any O(size) work."""
    if cap >= 1 << _LO_SHIFT:
        raise BudgetExceeded(f"state space of a {size}-element monoid is out of reach")
    table_cells = cap * ((size + 7) // 8) * 256  # at most one table per candidate
    if table_cells > 1 << 23:
        raise BudgetExceeded(
            f"image tables of a {size}-element monoid could need {table_cells} cells"
        )
    # Recursion depth tracks extension length, bounded by cap; the
    # interpreter's limit is read, never raised.  Both callers pass cap <
    # size, and the table guard above forces cap * ceil(size/8) <= 32768,
    # so cap < 512 and the default limit of 1000 never trips this.
    if cap + 200 > sys.getrecursionlimit():
        raise BudgetExceeded(f"search depth {cap} exceeds the recursion limit")


class FreeSearch:
    """Maximum free-sequence length over the candidates of `monoid`
    avoiding its forbidden mask, with lexicographically-smallest
    witness, in the monoid on 0..size - 1 whose product rule is
    monoid.product.  cap bounds every free length, and it counts at
    least the usable candidates (each is a one-term free sequence whose
    product set avoids the forbidden elements).  The size guards are not
    run here: longest_free runs them before it builds the monoid.  A
    candidate's image table is built on its first _image, so a walk
    that tries few candidates builds few tables."""

    def __init__(self, monoid: Monoid, cap: int, budget: SearchBudget):
        self.size = size = len(monoid.labels)
        self.product = monoid.product
        self.forbidden = forbidden = monoid.forbidden
        self.cap = cap
        self.budget = budget
        self._nbytes = (size + 7) // 8
        # a forbidden term is never part of a free sequence
        self.candidates = sorted(a for a in monoid.candidates if not forbidden >> a & 1)
        self._floor_shift = (len(self.candidates) + 1).bit_length()
        self._memo: dict[int, int] = {}
        self._states = 0
        self._deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        self._selfbit = [1 << a for a in self.candidates]
        self._bad = [self._forbidden_preimage(a) for a in self.candidates]
        self._tables: list[list[int] | None] = [None] * len(self.candidates)

    def _forbidden_preimage(self, a: int) -> int:
        """Mask of the elements s with s*a forbidden."""
        product, forbidden = self.product, self.forbidden
        return sum(1 << s for s in range(self.size) if forbidden >> product(s, a) & 1)

    def _build_table(self, a: int) -> list[int]:
        """Per 8-bit chunk c of a product-set mask, the OR of images
        s -> s*a for every subset b of that chunk, at index c << 8 | b.
        Built incrementally: image(v) = image(v minus lowest bit) |
        image(lowest bit)."""
        size, product = self.size, self.product
        table = [0] * (self._nbytes << 8)
        for c in range(self._nbytes):
            base = 8 * c
            off = c << 8
            for j in range(min(8, size - base)):
                table[off | 1 << j] = 1 << product(base + j, a)
            for v in range(3, 256):
                low = v & -v
                if v != low:
                    table[off | v] = table[off | v & (v - 1)] | table[off | low]
        return table

    def _chunks(self, S: int) -> list[int]:
        """Table indices c << 8 | b of the nonzero bytes b of S."""
        return [
            c << 8 | b
            for c, b in enumerate(S.to_bytes(self._nbytes, "little"))
            if b
        ]

    def _image(self, S: int, chunks: list[int], idx: int) -> int:
        """Product set after appending candidates[idx] to a sequence
        whose product set is S, given chunks = self._chunks(S)."""
        tbl = self._tables[idx]
        if tbl is None:
            tbl = self._tables[idx] = self._build_table(self.candidates[idx])
        img = S | self._selfbit[idx]
        for cb in chunks:
            img |= tbl[cb]
        return img

    def _tick(self) -> None:
        self._states += 1
        if self._states > self.budget.max_states:
            raise BudgetExceeded(
                f"memo table exceeded {self.budget.max_states} states"
            )
        if self._deadline is not None and self._states % _TIME_CHECK_PERIOD == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded(
                    f"search exceeded {self.budget.max_seconds} seconds"
                )

    def _reach(self, S: int, floor: int, r: int) -> bool:
        """Can the free state S be extended by r further terms drawn
        (nondecreasingly) from candidates[floor:]?"""
        if r == 0:
            return True
        if S.bit_count() + r > self.cap:
            return False
        key = (S << self._floor_shift) | floor
        ent = self._memo.get(key)
        if ent is None:
            self._tick()
            ent = _LO_INIT << _LO_SHIFT  # hi_true 0, lo_false "infinity"
            self._memo[key] = ent
        else:
            if r <= ent & _LO_INIT:
                return True
            if r >= ent >> _LO_SHIFT:
                return False
        bad = self._bad
        chunks = self._chunks(S)
        room = self.cap - (r - 1)  # a child above this fails its slack test
        for idx in range(floor, len(self.candidates)):
            if S & bad[idx]:
                continue  # the extension is not free (prefilter)
            # The extension T is free, so T != S: a stalled product set
            # would mean some power of the new term is already an
            # achieved forbidden product.  With r == 1, T proves S.
            if r > 1:
                T = self._image(S, chunks, idx)
                if T.bit_count() > room or not self._reach(T, idx, r - 1):
                    continue
            if r > ent & _LO_INIT:
                self._memo[key] = (ent >> _LO_SHIFT << _LO_SHIFT) | r
            return True
        if r < ent >> _LO_SHIFT:
            self._memo[key] = (r << _LO_SHIFT) | (ent & _LO_INIT)
        return False

    def exists_free(self, r: int) -> bool:
        """Is there a free sequence of length r?"""
        if r <= 0:
            return True
        if r > self.cap:
            return False
        return any(
            self._reach(self._selfbit[idx], idx, r - 1)
            for idx in range(len(self.candidates))
        )

    def witness(self, length: int) -> tuple[int, ...]:
        """Lexicographically smallest free sequence of the given length
        (which must be achievable — call after exists_free(length)
        returned True, so the walk reads its path from the memo)."""
        terms: list[int] = []
        S, floor, remaining = 0, 0, length
        while remaining > 0:
            chunks = self._chunks(S)
            for idx in range(floor, len(self.candidates)):
                if S & self._bad[idx]:
                    continue
                T = self._image(S, chunks, idx)
                if self._reach(T, idx, remaining - 1):
                    terms.append(self.candidates[idx])
                    S, floor, remaining = T, idx, remaining - 1
                    break
            else:
                raise InconsistencyError(
                    f"witness reconstruction stuck at length {len(terms)}"
                )  # unreachable if length is achievable
        return tuple(terms)

    @property
    def states_used(self) -> int:
        return self._states


class Longest(NamedTuple):
    """longest_free's outcome: value and witness, or bracket and reason,
    with the states the engine explored (0 when its size guards refused
    to build it)."""

    value: int | None
    witness: tuple[int, ...] | None
    bounds: tuple[int, int] | None
    reason: str | None
    states: int


def longest_free(
    size: int,
    monoid: Callable[[], Monoid],
    cap: int,
    floor: int,
    ceiling: int,
    budget: SearchBudget,
) -> Longest:
    """One more than the maximum length of a free sequence in the
    size-element monoid that monoid() builds, with the lexicographically
    smallest free sequence of that length, in labels.  The size guards
    run on size and cap before monoid() is called, so a search out of
    reach costs no O(n) work.  [floor, ceiling] is a proven bracket for
    the value: one probe confirms floor - 1, and the gallop then probes
    upward while the next length is below ceiling, so floor == ceiling
    runs no refutation (cap bounds every free length, so ceiling = cap +
    1 proves nothing more).  A budget that runs out leaves the bracket
    [length + 1, ceiling], length being the longest the search confirmed
    (floor - 1 before the first probe)."""
    engine = None
    length = floor - 1
    try:
        _check_size(size, cap)
        M = monoid()
        engine = FreeSearch(M, cap, budget)
        if length > 0 and not engine.exists_free(length):
            raise InconsistencyError(
                f"claimed lower bound {length} refuted for n={M.n}"
            )
        while length + 1 < ceiling and engine.exists_free(length + 1):
            length += 1
        witness = tuple(M.labels[i] for i in engine.witness(length))
    except BudgetExceeded as exc:
        states = engine.states_used if engine is not None else 0
        return Longest(None, None, (length + 1, ceiling), str(exc), states)
    return Longest(length + 1, witness, None, None, engine.states_used)
