"""Exhaustive search for maximum-length free sequences mod n.

Shared engine behind the Davenport constant (forbidden product: 1) and
the idempotent-product constant (forbidden products: every idempotent).
A sequence is *free* when no nonempty sub-multiset has a forbidden
product, i.e. its product set avoids the forbidden bit mask.

Key facts the engine leans on:

* Canonical order.  Sequences are multisets, so the search enumerates
  only nondecreasing term orders: state is (product-set bitmask, lowest
  candidate index still allowed).

* Strict growth.  Adding a term to a free sequence strictly grows the
  product set (if it didn't, some power of the added term would already
  be an achieved product and idempotent/one, contradicting freeness).
  Hence a free sequence of length L has |product set| >= L, and L can
  never exceed cap = (number of residues that may appear in a free
  product set).  This yields the slack pruning rule
  popcount(S) + r > cap  =>  no r-term extension exists.

* Forbidden-preimage prefilter.  For each candidate a the engine keeps
  bad(a) = {s : s*a mod n is forbidden} as one n-bit mask.  Let S be
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
roughly exponential in the slack cap - r, so the engine gallops upward
from a proven lower bound and pays one refutation, at the true answer
+ 1 (the cheapest possible), or none when the answer reaches a proven
upper bound.  That bound is cap unless the caller proves a lower
ceiling (a theorem's value), and the gallop never probes past it.  When
the lower bound already equals the upper one (a theorem's D or a
theorem's I(n)), one confirming probe is the whole search: it walks
the lexicographically smallest path, which the witness then reads from
the memo, and no refutation runs.

longest_free is the one routine that builds and runs an engine; both
davenport_exact and eb_exact take their value and witness, or the
bracket the search proved when its budget ran out, from it.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import BudgetExceeded, InconsistencyError

_LO_SHIFT = 20  # memo packing: hi_true | (lo_false << _LO_SHIFT)
_LO_INIT = (1 << _LO_SHIFT) - 1
_TIME_CHECK_PERIOD = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one exact search.

    max_states caps the memo table (distinct explored states); blowing
    it raises BudgetExceeded, which callers convert into an honest
    undecided verdict.  max_seconds is wall-clock, checked coarsely.
    """

    max_states: int = 1 << 26
    max_seconds: float | None = None


class FreeSearch:
    """Maximum free-sequence length over `candidates` avoiding
    `forbidden_mask`, with lexicographically-smallest witness.  cap
    bounds every free length, so also the number of usable candidates
    (each is a one-term free sequence); the size guards read cap, before
    the candidates are read."""

    def __init__(
        self,
        n: int,
        candidates: Iterable[int],
        forbidden_mask: int,
        cap: int,
        budget: SearchBudget,
    ):
        self.n = n
        self.forbidden = forbidden_mask
        self.cap = cap
        self.budget = budget
        self._nbytes = (n + 7) // 8
        self.best_true = 0  # largest r with exists_free(r) proven
        if cap >= 1 << _LO_SHIFT:
            raise BudgetExceeded(f"state space for n={n} is out of reach")
        table_cells = cap * self._nbytes * 256  # at least one table per candidate
        if table_cells > 1 << 23:
            raise BudgetExceeded(
                f"candidate image tables for n={n} need {table_cells} cells"
            )
        # Recursion depth tracks extension length, bounded by cap; the
        # interpreter's limit is read, never raised.  Both callers pass
        # cap < n, and the table guard above forces cap * ceil(n/8) <=
        # 32768, so cap < 512 and the default limit of 1000 never trips
        # this.
        if cap + 200 > sys.getrecursionlimit():
            raise BudgetExceeded(
                f"search depth {cap} for n={n} exceeds the recursion limit"
            )
        # a forbidden term is never part of a free sequence
        self.candidates = sorted(a for a in candidates if not forbidden_mask >> a & 1)
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
        self._tables = [self._build_table(a) for a in self.candidates]

    def _forbidden_preimage(self, a: int) -> int:
        """Mask of the residues s with s*a mod n forbidden."""
        n, forbidden = self.n, self.forbidden
        return sum(1 << s for s in range(n) if forbidden >> (s * a % n) & 1)

    def _build_table(self, a: int) -> list[int]:
        """Per 8-bit chunk c of a product-set mask, the OR of images
        s -> s*a for every subset b of that chunk, at index c << 8 | b.
        Built incrementally: image(v) = image(v minus lowest bit) |
        image(lowest bit)."""
        n = self.n
        table = [0] * (self._nbytes << 8)
        for c in range(self._nbytes):
            base = 8 * c
            off = c << 8
            for j in range(8):
                if base + j < n:
                    table[off | 1 << j] = 1 << ((base + j) * a % n)
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
        for idx in range(len(self.candidates)):
            if self._reach(self._selfbit[idx], idx, r - 1):
                if r > self.best_true:
                    self.best_true = r
                return True
        return False

    def max_free_length(self, seed: int = 0, limit: int | None = None) -> int:
        """Largest r with a free sequence of length r.

        seed must be an already-proven lower bound (0 is always safe);
        anything stronger, e.g. from a classical formula, turns all but
        one probe into cheap confirmations.  limit, when given, must be
        an already-proven upper bound: no length above it is probed, so
        seed == limit leaves one confirming probe and no refutation.
        """
        if not self.candidates or self.cap <= 0:
            return 0
        top = self.cap if limit is None else min(limit, self.cap)
        g = min(max(seed, 0), top)
        if g > 0 and not self.exists_free(g):
            raise InconsistencyError(
                f"claimed lower bound {g} refuted for n={self.n}"
            )
        while g < top and self.exists_free(g + 1):
            g += 1
        return g

    def witness(self, length: int) -> tuple[int, ...]:
        """Lexicographically smallest free sequence of the given length
        (which must be achievable — call after max_free_length)."""
        if length == 0:
            return ()
        terms: list[int] = []
        S = 0
        floor = 0
        remaining = length
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
    n: int,
    candidates: Iterable[int],
    forbidden_mask: int,
    cap: int,
    floor: int,
    ceiling: int,
    budget: SearchBudget,
) -> Longest:
    """One more than the maximum length of a free sequence over
    `candidates` avoiding `forbidden_mask`, with the lexicographically
    smallest free sequence of that length.  [floor, ceiling] is a proven
    bracket for the value: floor seeds the probes, and no length at or
    past ceiling is probed, so floor == ceiling runs no refutation (cap
    bounds every free length, so ceiling = cap + 1 proves nothing more).
    A budget that runs out leaves the bracket [lo, hi] with lo past the
    longest length the search proved."""
    engine = None
    try:
        engine = FreeSearch(n, candidates, forbidden_mask, cap, budget)
        length = engine.max_free_length(seed=floor - 1, limit=ceiling - 1)
    except BudgetExceeded as exc:
        built = engine is not None
        states = engine.states_used if built else 0
        lo = max(floor, (engine.best_true if built else 0) + 1)
        return Longest(None, None, (lo, max(cap + 1, lo)), str(exc), states)
    value = length + 1
    if not floor <= value <= ceiling:
        raise InconsistencyError(
            f"value {value} for n={n} outside [{floor}, {ceiling}] (floor, ceiling)"
        )
    witness = engine.witness(length)
    return Longest(value, witness, None, None, engine.states_used)
