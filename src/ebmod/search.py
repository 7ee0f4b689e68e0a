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
  only nondecreasing term orders: a query is a state (below) and a
  floor, the lowest element still allowed as the next term.

* Strict growth.  Adding a term to a free sequence strictly grows the
  product set (if it didn't, some power of the added term would already
  be an achieved product and idempotent/one, contradicting freeness).
  Hence a free sequence of length L has |product set| >= L, and L can
  never exceed cap = (number of monoid elements that may appear in a
  free product set).

* The state word.  Call a candidate that is not forbidden usable; the
  caller's candidates must be closed in the sense that a product of
  usable elements is usable or forbidden, which holds for the units,
  for M(n) and for Z/nZ with every residue a candidate.  For a product
  set S let bad(S) = {x usable : s*x is forbidden for some s in S}, and
  carry a state as the one int W = S | bad(S) << size.  Appending a
  usable a to a free sequence with product set S gives T = S | {a} |
  S*a, which is free exactly when a is not in bad(S): S avoids the
  forbidden set, {a} does since a is usable, and S*a meets it iff some
  s in S has s*a forbidden.  So the terms a free state may take next
  are the set bits of (usable elements >= floor) & ~bad(S), and the
  walk tests no candidate one by one.  Writing word(t) = {t} | pre(t)
  << size with pre(t) = {x usable : t*x forbidden}, bad(T) is the union
  of pre(t) over t in T, so T's word is W | word(a) | the OR of
  word(s*a) over s in S.  A per-candidate table holds that OR for every
  subset of each 8-element chunk of S, so one OR pass over S's nonzero
  chunks builds T and bad(T) together.  A state with one term left to
  place is proved by any allowed term, without building a child.

* The allowed-set bound.  If T (free) extends by r more terms b_1..b_r,
  their own product set P avoids the forbidden set, and P*T does too,
  so P misses bad(T); P holds products of usable elements, none
  forbidden, so P lies in the usable set; and b_1..b_r is free on its
  own, so |P| >= r by strict growth.  Hence r <= |usable| - |bad(T)|,
  and a child T with |bad(T)| + (r - 1) > |usable| is dropped where it
  is made, before it becomes a state.  For both callers |bad(T)| >=
  |T|, so it is at least as strong as strict growth.  In a unit group
  bad(T) = T^-1.  In M(n) the map acting componentwise by u -> u^-1
  on a unit, p^j -> p^(k - j) for 1 <= j < k and p^k -> p^k is an
  involution, hence injective, and it sends each t to an element t'
  with t*t' idempotent in every component; t' is idempotent only when
  t is, and T has no idempotent, so t' is usable (every element of
  M(n) is a candidate) and lies in bad(T).  So every child of the
  empty sequence has a nonempty bad set, and the bound refutes any r >
  |usable| there without a state: the engine needs no cap.

* Reach depends on bad(S) alone.  Let a free sequence have product
  set S, and let B = b_1..b_r be further terms with product set P.  The
  joined sequence has product set S | P | S*P, so it is free exactly
  when (i) B is free, i.e. P avoids the forbidden set, and (ii) S*P
  avoids it.  Under (i) P holds products of usable elements, none of
  them forbidden, so P lies in the usable set by the closure above, and
  then (ii) says exactly that P misses bad(S).  Neither condition reads
  S itself, so two states with one bad set extend by the same terms from
  every floor: reach(S, f) = reach(bad(S), f).  The memo is keyed on
  bad(S), the high half of the state word.  In a unit group bad(S) =
  S^-1 is a bijective image of S, so the key only renames the states;
  in M(n) many product sets share one bad set, and the memo answers
  them all from one entry.

* Monotone reach.  If a state extends by r further terms, it extends
  by fewer; if it cannot extend by r, it cannot extend by more.  Reach
  is monotone in the floor too: the elements >= g include those >= f
  when g <= f, so an extension by r from floor f is one from every
  lower floor, and none from f means none from any higher floor.  The
  entry for a bad set packs into one int the floor f it was last
  computed at and two bounds there, the best r proven reachable and the
  worst r proven unreachable.  A query at a floor g <= f answers True
  up to the first bound, one at g >= f answers False from the second;
  any other query walks the state's children at g, starting from the
  bound that still holds, and overwrites the entry with g's bounds.
  Whichever product set made the entry, the bounds hold for every state
  with that bad set, so a hit changes no verdict, and with it no probe,
  witness or order of the walk.  FreeSearch._next, the one walk, reads
  the entry of each child where it builds it, and the probes and the
  witness reconstruction share the memo.

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

# memo packing: hi_true | lo_false << _LO_SHIFT | floor << _FLOOR_SHIFT
_LO_SHIFT = 20
_LO_INIT = (1 << _LO_SHIFT) - 1
_FLOOR_SHIFT = 2 * _LO_SHIFT
_TIME_CHECK_PERIOD = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one exact search.

    max_states caps the memo table, one entry per distinct bad set
    explored (see the module docstring); blowing it raises
    BudgetExceeded, which callers convert into an honest undecided
    verdict.  max_seconds is wall-clock, checked coarsely.  Both must
    be >= 0; 0 and inf are legal, NaN is not.
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
    elements a sequence may use (the engine drops the forbidden ones),
    and a product of two of them must be one of them or forbidden, as
    the allowed-set bound of the module docstring requires."""

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
    # At most one table per candidate.  A cell is an 8-byte list slot
    # holding a state word, a 2*size-bit int of 24 + 4*ceil(size/15)
    # bytes, so the 2^23 cells admitted take at most 2^23 * (32 +
    # 4*ceil(size/15)) bytes: 1.3 GiB at size 512, the largest that
    # passes with cap = size - 2, and more at larger sizes with smaller
    # caps.  Cells holding S alone took about 60% of that.
    table_cells = cap * ((size + 7) // 8) * 256
    if table_cells > 1 << 23:
        raise BudgetExceeded(
            f"image tables of a {size}-element monoid could need {table_cells} cells"
        )
    # Recursion depth is one _next frame per term, so at most cap; the
    # interpreter's limit is read, never raised.  Both callers pass cap <
    # size, and the table guard above forces cap * ceil(size/8) <= 32768,
    # so cap < 512 and the default limit of 1000 never trips this.
    if cap + 200 > sys.getrecursionlimit():
        raise BudgetExceeded(f"search depth {cap} exceeds the recursion limit")


class FreeSearch:
    """Maximum free-sequence length over the candidates of `monoid`
    avoiding its forbidden mask, with lexicographically-smallest
    witness, in the monoid on 0..size - 1 whose product rule is
    monoid.product; _next is its one walk.  The size guards are not
    run here: longest_free runs them before it builds the monoid.  The
    words of all elements are built up front; a candidate's image table
    is built on the first child it makes, so a walk that tries few
    candidates builds few tables."""

    def __init__(self, monoid: Monoid, budget: SearchBudget):
        self.size = size = len(monoid.labels)
        self.product = product = monoid.product
        self.forbidden = forbidden = monoid.forbidden
        self.budget = budget
        self._nbytes = (size + 7) // 8
        self._low = (1 << size) - 1
        # a forbidden term is never part of a free sequence
        self.candidates = cands = sorted(
            a for a in monoid.candidates if not forbidden >> a & 1
        )
        self._usable_count = len(cands)
        usable = sum(1 << a for a in cands)
        # _above[f]: the usable elements >= f, for every floor f
        self._above = [usable >> f << f for f in range(size + 1)]
        # _word[t]: the state word of the product set {t}
        self._word = [
            1 << t
            | sum(1 << x for x in cands if forbidden >> product(t, x) & 1) << size
            for t in range(size)
        ]
        self._memo: dict[int, int] = {}
        self._states = 0
        self._deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        self._tables: list[list[int] | None] = [None] * size

    def _build_table(self, a: int) -> list[int]:
        """Per 8-bit chunk c of a product set, the OR of the words of s*a
        over every subset b of that chunk, at index c << 8 | b.  Each
        element of the chunk doubles the entries built so far."""
        product, word = self.product, self._word
        table: list[int] = []
        for base in range(0, self.size, 8):
            chunk = [0]
            for s in range(base, min(base + 8, self.size)):
                bit = word[product(s, a)]
                chunk += [v | bit for v in chunk]
            table += chunk
        self._tables[a] = table
        return table

    def _chunks(self, S: int) -> list[int]:
        """Table indices c << 8 | b of the nonzero bytes b of S."""
        return [
            c << 8 | b
            for c, b in enumerate(S.to_bytes(self._nbytes, "little"))
            if b
        ]

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

    def _next(self, W: int, floor: int, r: int) -> tuple[int, int] | None:
        """(a, T) for the smallest term a >= floor allowed after the state
        word W whose child, of state word T, extends by r - 1 >= 0 further
        terms drawn (nondecreasingly) from the usable elements >= a; None
        if there is no such a."""
        size, word, tables, memo = self.size, self._word, self._tables, self._memo
        chunks = self._chunks(W & self._low)
        rest = r - 1
        room = self._usable_count - rest
        allowed = self._above[floor] & ~(W >> size)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            a = low.bit_length() - 1
            tbl = tables[a] or self._build_table(a)
            T = W | word[a]
            for cb in chunks:
                T |= tbl[cb]
            if rest == 0:
                return a, T
            bad = T >> size
            if bad.bit_count() > room:
                continue
            ent = memo.get(bad)
            if ent is None:
                self._tick()
                hi, lo = 0, _LO_INIT  # hi_true 0, lo_false "infinity"
            else:
                # the entry's bounds hold at its floor f; a lower floor allows
                # more candidates, so hi_true still holds there, and a higher
                # one fewer, so lo_false does
                f = ent >> _FLOOR_SHIFT
                hi = ent & _LO_INIT if a <= f else 0
                lo = ent >> _LO_SHIFT & _LO_INIT if a >= f else _LO_INIT
                if rest <= hi:
                    return a, T
                if rest >= lo:
                    continue
            # with one term left any allowed term proves T, unbuilt
            if rest == 1:
                found = self._above[a] & ~bad != 0
            else:
                found = self._next(T, a, rest) is not None
            if found:
                memo[bad] = a << _FLOOR_SHIFT | lo << _LO_SHIFT | rest
                return a, T
            memo[bad] = a << _FLOOR_SHIFT | rest << _LO_SHIFT | hi
        return None

    def exists_free(self, r: int) -> bool:
        """Is there a free sequence of length r?"""
        return r <= 0 or self._next(0, 0, r) is not None

    def witness(self, length: int) -> tuple[int, ...]:
        """Lexicographically smallest free sequence of the given length
        (which must be achievable — call after exists_free(length)
        returned True, so the walk reads its path from the memo)."""
        terms: list[int] = []
        W = floor = 0
        for remaining in range(length, 0, -1):
            step = self._next(W, floor, remaining)
            if step is None:
                raise InconsistencyError(
                    f"witness reconstruction stuck at length {len(terms)}"
                )  # unreachable if length is achievable
            floor, W = step
            terms.append(floor)
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
        engine = FreeSearch(M, budget)
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
