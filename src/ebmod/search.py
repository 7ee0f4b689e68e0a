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
its labels.  On the engine whose witness is read, labels increase with
the index, so its lexicographically smallest sequence of elements is
the smallest one of labels; the probes may run on a second engine in
another order (Search order, below).  davenport_exact
searches the units, eb_exact the quotient monoid M(n) of ebconstant;
the identity labelling of Z/nZ itself is what the tests' independent
search runs on.

Key facts the engine leans on:

* Canonical order.  Sequences are multisets, so the search enumerates
  only nondecreasing term orders: a query is a state (below) and a
  floor, the lowest element still allowed as the next term, of which
  the walk tries only the terms the power bound (below) leaves.

* Strict growth.  Adding a term to a free sequence strictly grows the
  product set (if it didn't, some power of the added term would already
  be an achieved product and idempotent/one, contradicting freeness).
  Hence a free sequence of length L has |product set| >= L, and L can
  never exceed cap = (number of monoid elements that may appear in a
  free product set).  This needs every idempotent that is a product of
  candidates to be forbidden, as it is for both callers: the
  idempotents of M(n), and 1, the only idempotent of a unit group.

* The allowed-set state.  Call a candidate that is not forbidden usable;
  the caller's candidates must be closed in the sense that a product of
  usable elements is usable or forbidden, which holds for the units,
  for M(n) and for Z/nZ with every residue a candidate.  For a product
  set S let bad(S) = {x usable : s*x is forbidden for some s in S} and
  allowed(S) = usable minus bad(S); a state is the one size-bit int A =
  allowed(S), and the empty sequence's is the usable set.  Appending a
  usable a to a free sequence with product set S gives T = S | {a} |
  S*a, which is free exactly when a is in A: S avoids the forbidden
  set, {a} does since a is usable, and S*a meets it iff some s in S has
  s*a forbidden.  So the terms a state may take next are the set bits
  of A above the floor, and the walk tests no candidate one by one.
  Then allowed(T) = A & a^-1 A = {x in A : a*x in A}.  Proof: bad(T) is
  bad(S) with pre(a) and pre(s*a), s in S, added, where pre(t) = {x
  usable : t*x forbidden}; so a usable x lies in bad(T) exactly when x
  is in bad(S), or a*x is forbidden, or s*(a*x) is forbidden for some s
  in S.  By closure a*x is usable or forbidden, and when it is usable
  the last case says a*x is in bad(S).  So x is allowed after a exactly
  when x is in A and a*x is in A.  A per-candidate table holds, for every
  subset of each 8-element chunk of A, the usable x with a*x in that
  subset, so one OR pass over A's nonzero chunks builds a^-1 A.

* Reach depends on the allowed set alone.  Let a free sequence have
  product set S, and let B = b_1..b_r be further terms with product set
  P.  The joined sequence has product set S | P | S*P, so it is free
  exactly when (i) B is free, i.e. P avoids the forbidden set, and (ii)
  S*P avoids it.  Under (i) P holds products of usable elements, none
  of them forbidden, so P lies in the usable set by the closure above,
  and then (ii) says exactly that P misses bad(S): P lies in
  allowed(S).  Neither condition reads S itself, so two states with
  one allowed set extend by the same terms from every floor.  Write
  reach(K, f) for the most terms >= f of a free sequence whose product
  set lies in a set K of usable elements; a state A extends from f by
  exactly reach(A, f) terms, and the walk, the bounds and the memo
  below read K only as such a set, so the memo is keyed on K, the
  allowed set cut to its floor's ideal (Floor ideal, below).  A and
  bad(S) determine each other, and in a unit group bad(S) = S^-1 is a
  bijective image of S, so there the key only renames the states; in
  M(n) many product sets share one allowed set, more share one cut
  set, and the memo answers them all from one entry.

* Floor ideal.  Let J_f be the ideal the usable elements >= f
  generate: the products u*m of a usable u >= f and any element m.  It
  holds every usable element >= f (take m = 1), and J_f*m lies in J_f.
  Each product of an extension's terms is one term >= f times the
  product of the others, or that term alone, so the product set of an
  extension from floor f lies in J_f, and it lies in K exactly when it
  lies in K & J_f: reach(K, f) = reach(K & J_f, f), in any monoid and
  in any order of its indices.  So the walk cuts each child to the
  ideal of its floor where it builds it: a's preimage table keeps only
  the x in J_a, and a's child of A is A & a^-1 A & J_a at no cost per
  child.  The cut set is no larger than the allowed set, so the
  allowed-set bound below is tighter and more states share one memo
  entry.  FreeSearch builds J_f once, top down: J_f is J_(f+1) unless
  f is usable and outside it, when f's row of products joins it.  Where
  the last usable element is a unit, as in the units and in M(n) in
  label order (the class of -1), its row is the whole monoid, so J_f
  is the whole monoid at every floor a term can take and no child is
  cut; the witness walk and the Davenport searches are unchanged.  In
  M(n)'s search order (below) the units come first, and a product with
  a non-unit factor is a non-unit, so once the floor passes the units
  J_f holds no unit and each child drops every unit.

* The allowed-set bound.  If T extends by r more terms >= f, their
  product set P lies in allowed(T) & J_f by the lemmas above, and
  b_1..b_r is free on its own, so |P| >= r by strict growth.  Hence
  r <= |allowed(T) & J_f|, and a child whose cut set has fewer elements
  than terms still to place is dropped where it is made, before it
  becomes a state.  For both callers |bad(T)| >= |T|, so it is at
  least as strong as strict growth.  In a unit group bad(T) = T^-1.  In
  M(n) the map acting componentwise by u -> u^-1 on a unit,
  p^j -> p^(k - j) for 1 <= j < k and p^k -> p^k is an involution,
  hence injective, and it sends each t to an element t' with t*t'
  idempotent in every component; t' is idempotent only when t is, and
  T has no idempotent, so t' is usable (every element of M(n) is a
  candidate) and lies in bad(T).  So every
  child of the empty sequence has a nonempty bad set, and the bound
  refutes any r > |usable| there without a state: the engine needs no
  cap.

* The power bound.  Let the r terms above all be >= the floor f, and
  let mult_A(b) count the leading powers b, b^2, b^3, ... that lie in A
  = allowed(T) & J_f.  A term b taken j times makes b, b^2, ..., b^j
  sub-products, so all of them lie in P, which lies in A; hence j <=
  mult_A(b), and summing over the terms, which lie in A and are >= f,
  r <= the sum of mult_A(b) over the b in A with b >= f.  The walk
  adds these up from the top of A down and stops at the first b at
  which the sum reaches r.  Each b it scans is a set bit of A, so b
  itself counts 1 without a test, and only b^2, b^3, ... are looked up
  in A, from a list built on b's first scan.  If the smallest term of
  an extension were above that b, every term would be among the
  elements scanned before it, whose sum is short of r; so only the
  terms of A from f up to b can open an extension, and they are all
  the next call tries (its own later terms range over A above the one
  it takes).  When the sum stays short, the child is dropped before it
  becomes a state.  With one term left to place the sum reaches 1 at
  the top allowed element, so the bound passes exactly when some term
  can be placed.

* Monotone reach.  If a state extends by r further terms, it extends by
  fewer; if it cannot extend by r, it cannot extend by more.  Reach is
  monotone in the floor too: the elements >= g include those >= f when
  g <= f, so an extension by r from floor f is one from every lower
  floor, and none from f means none from any higher floor.  The entry
  for a key K packs into one int the floor f it was last computed at
  and two bounds on reach(K, f), the best r proven reachable and the
  worst r proven unreachable; the power bound only
  leaves out next terms that open no extension, so the verdict of a walk
  over the terms it leaves is the one from f.  A query at a floor g <= f
  answers True up to the first bound, one at g >= f answers False from
  the second; any other query walks the state's children at g, starting
  from the bound that still holds, and overwrites the entry with g's
  bounds.  Whichever product set made the entry, the bounds hold for
  every state whose cut set at the query's floor is its key, since
  reach(K, g) is that state's reach from g, so a hit changes no verdict,
  and with it no probe, witness or order of the walk.  FreeSearch._next,
  the one walk, reads the entry of each child where it builds it, and
  the probes and a witness walk on one engine share its memo.

* Symmetry.  Let G be the group generated by the automorphisms
  Monoid.symmetries lists; each fixes the forbidden mask and the
  candidates, so every g in G does.  Each g in G maps free sequences of
  length r to free ones: g maps the product set onto the image's product
  set, and a product avoids the forbidden mask exactly when its image
  does.  Let s* = (a, b, ...) be the lexicographically smallest free
  sequence of length r, sorted.  The smallest term of the sorted image
  g(s*) is at most g(a), and its two smallest terms are at most those of
  sorted(g(a), g(b)), term by term.  So g(a) < a, or sorted(g(a), g(b))
  <_lex (a, b), would make sorted g(s*) <_lex s*, against the choice of
  s*.  Hence if a free sequence of length r exists, one exists whose
  first term a, and pair (a, b) of first two terms, are each the least
  of their orbit under G, and a probe that tries only such first two
  terms has the unpruned probe's verdict.  G is finite, so each g^-1 is
  a power of g, and the orbit of a pair a <= b of usable elements is
  what the listed g reach from it, acting by sorted(g(a), g(b)).  A
  sweep of these pairs in increasing index a*size + b marks the whole
  orbit of each pair it has not met, which is the least of its orbit:
  a smaller pair of the orbit, swept first, would have marked it.  And
  a is least in its orbit exactly when (a, a) is, the orbit of (a, a)
  being the pairs (g(a), g(a)).  With no listed g, every orbit is one
  pair.  The power bound still applies, since s* is among the
  extensions it keeps.  A root child's verdict in such a probe then
  depends on its first term, so the child is neither read from the
  memo nor written to it; states at depth >= 2 try every next term, so
  their entries stay exact.  Every probe prunes; the witness walk tries
  every term and reads from a probe's memo only those exact entries,
  so the witness cannot move.

* Search order.  A probe's verdict does not depend on the order in which
  the engine enumerates.  Rename the elements by a permutation pi,
  element order[k] becoming k (Monoid.reindexed): pi carries products to
  products, the forbidden mask onto the renamed one and the candidates
  onto the renamed ones, so a multiset is free in one monoid exactly
  when its image is free in the other, and a free sequence of length r
  exists in one exactly when one exists in the other.  That existence is
  all exists_free(r) reports, so its verdict is the same in every order
  as long as the walk is exact in every order, that is, as long as each
  fact above that compares indices holds in any total order of them.  It
  does.  Canonical order: every multiset has exactly one nondecreasing
  arrangement in any total order.  The allowed-set lemma and the
  allowed-set bound speak of sets and products only, and the 8-element
  chunks of the preimage tables only represent a set, whatever elements
  share a chunk.  The floor ideal reads the order only through the
  usable elements >= f, the terms an extension from f draws on in that
  same order; what the order changes is how much it cuts.  The power
  bound uses only that the terms of an extension are >= the floor and
  that, summing from the largest index of A down, the terms above the b
  it stops at are all among those scanned before b; both hold in any
  total order.  The memo's floor rules use only that the elements >= g
  include those >= f when g <= f, again true in any total order, and an
  engine's memo is keyed on cut sets in its own indices, so no entry
  passes between engines.  Symmetry: Monoid.reindexed maps each listed
  g to pi g pi^-1, an automorphism of the renamed monoid fixing its
  forbidden mask and candidates, and these generate pi G pi^-1; the
  argument above picks s* lexicographically smallest in whatever order
  the indices have.  So the gallop's probes may run on an engine over
  the monoid renamed in a search order the caller hands over
  (Monoid.order), while the witness walk runs on an engine in label
  order, whose lexicographically smallest sequence is the witness.  The
  order changes the cost only.  M(n)'s (ebconstant) puts the units
  first, then elements with more leading usable powers, then labels; it
  was chosen because it measured fewer states on every refutation for
  n <= 66, about half in total, and no proof says it is best.  It also
  makes the floor ideal cut: past the units every child drops them,
  where in label order no child is cut.

Probing order exploits the cost asymmetry: refuting length r costs
roughly exponential in the slack cap - r, so longest_free gallops
upward from a proven lower bound and pays one refutation, at the true
answer + 1 (the cheapest possible), or none when the answer reaches a
proven upper bound.  That bound is cap unless the caller proves a lower
ceiling (a theorem's value), and the gallop never probes past it.  The
lower bound is one the caller certified (by a construction), so no
probe confirms it: the witness walk at the longest confirmed length
checks it with its first step, which is the unpruned probe at that
length.  When the lower bound already equals the upper one (a theorem's
D or a theorem's I(n)), that walk of the lexicographically smallest
path is the whole search, and no probe runs.

longest_free is the one routine that builds and runs engines, and the
one place the size guards run: on the monoid's size and cap, before the
monoid is built, so the engines it then hands that Monoid, and its
reindexed copy, run none.  Its engines draw on one state count and one
deadline, so its budget bounds the whole call.
Both davenport_exact and eb_exact take their value and witness, or the
bracket the search proved when its budget ran out, from it.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
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

    max_states caps the states of one longest_free call, one memo entry
    per distinct allowed set, cut to its floor's ideal, that an engine
    of it explores (see the module docstring); blowing it raises
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

    def left(self, start: float) -> SearchBudget:
        """This budget less the seconds spent since the time.monotonic()
        reading start, for a search that follows others on one deadline."""
        if self.max_seconds is None:
            return self
        spent = time.monotonic() - start
        return replace(self, max_seconds=max(0.0, self.max_seconds - spent))


class Monoid(NamedTuple):
    """A finite commutative monoid of residue classes mod n, as a caller
    hands it to longest_free.  Element i is the class whose smallest
    residue is labels[i].  Labels must increase with i only on the
    engine whose witness longest_free reads, so that its smallest
    sequence of indices is the smallest one of labels; a reindexed copy
    need not keep that order.  index maps each residue that a product
    of two labels can take to its class, so when taking classes is a
    homomorphism, product() is the monoid's product.
    forbidden masks the forbidden elements; candidates lists the
    elements a sequence may use (the engine drops the forbidden ones),
    and a product of two of them must be one of them or forbidden, and
    forbidden when it is idempotent, as the allowed-set state and strict
    growth of the module docstring require.  symmetries() lists
    generators of a group of automorphisms of the monoid that fixes the
    forbidden mask and the candidates, as index permutations, for the
    engine's probes (Symmetry in the module docstring); the engine calls
    it on its first probe only, and the default lists none, which makes
    every orbit one pair.  order() lists the elements in the search
    order of those probes, order()[k] becoming element k of the engine
    they run on (Search order in the module docstring); longest_free
    calls it once, when its bracket leaves a probe to run, and the
    default lists none, so the probes run on the monoid itself and the
    witness walk reuses their engine."""

    n: int
    labels: Sequence[int]
    index: Sequence[int]
    forbidden: int
    candidates: Iterable[int]
    symmetries: Callable[[], Iterable[Sequence[int]]] = tuple
    order: Callable[[], Sequence[int]] = tuple

    def product(self, i: int, j: int) -> int:
        return self.index[self.labels[i] * self.labels[j] % self.n]

    def reindexed(self, order: Sequence[int]) -> Monoid:
        """This monoid with element order[k] renamed k: its products,
        forbidden mask, candidates and symmetries mapped through the
        renaming, and no search order of its own."""
        pos = [0] * len(order)
        for k, i in enumerate(order):
            pos[i] = k
        symmetries = self.symmetries
        return Monoid(
            self.n,
            [self.labels[i] for i in order],
            [pos[i] for i in self.index],
            sum(1 << pos[i] for i in order if self.forbidden >> i & 1),
            [pos[i] for i in self.candidates],
            lambda: [[pos[g[i]] for i in order] for g in symmetries()],
        )


def _check_size(size: int, cap: int) -> None:
    """The engine's size guards: BudgetExceeded when a search over `size`
    elements, with every free length at most cap, is out of reach.  They
    read these two numbers only, so they run before any O(size) work."""
    if cap >= 1 << _LO_SHIFT:
        raise BudgetExceeded(f"state space of a {size}-element monoid is out of reach")
    # At most one table per candidate, and of longest_free's two engines
    # only one holds tables at a time: the probe engine is dropped before
    # the witness walk's engine is built.  A cell is an 8-byte list slot
    # holding a set of preimages, a size-bit int of 24 + 4*ceil(size/30)
    # bytes, so the 2^23 cells admitted take at most 2^23 * (32 +
    # 4*ceil(size/30)) bytes: 0.8 GiB at size 512, the largest that
    # passes with cap = size - 2, and more at larger sizes with smaller
    # caps.
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


class _Meter:
    """The state count and deadline of one search, which every engine of
    a longest_free call draws on, so that its budget bounds the call."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.states = 0
        self.deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )

    def tick(self) -> None:
        self.states += 1
        if self.states > self.budget.max_states:
            raise BudgetExceeded(
                f"memo table exceeded {self.budget.max_states} states"
            )
        if self.deadline is not None and self.states % _TIME_CHECK_PERIOD == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded(
                    f"search exceeded {self.budget.max_seconds} seconds"
                )


class FreeSearch:
    """Maximum free-sequence length over the candidates of `monoid`
    avoiding its forbidden mask, with lexicographically-smallest
    witness, in the monoid on 0..size - 1 whose product rule is
    monoid.product; _next is its one walk.  The size guards are not
    run here: longest_free runs them before it builds the monoid.  A
    candidate's preimage table is built on the first child it makes,
    and an element's powers on the first power bound that reads them,
    so a walk that tries few candidates builds few of either; the orbits
    of the monoid's symmetries are swept on the first probe.  An engine
    made with another's meter draws on its state count and deadline."""

    def __init__(
        self, monoid: Monoid, budget: SearchBudget, meter: _Meter | None = None
    ):
        self.size = size = len(monoid.labels)
        # the product rule read directly where rows of products are built
        self._labels, self._index, self._n = labels, index, n = (
            monoid.labels, monoid.index, monoid.n
        )
        self.forbidden = forbidden = monoid.forbidden
        self._nbytes = (size + 7) // 8
        # a forbidden term is never part of a free sequence
        self.candidates = cands = sorted(
            a for a in monoid.candidates if not forbidden >> a & 1
        )
        self._usable = usable = sum(1 << a for a in cands)
        # _above[f]: the usable elements >= f, for every floor f
        self._above = [usable >> f << f for f in range(size + 1)]
        # _ideal[f]: the ideal J_f the usable elements >= f generate (Floor
        # ideal in the module docstring), built top down: a usable f adds
        # its row of products only when J_(f+1) does not hold it already
        self._ideal = ideal = [0] * (size + 1)
        J = 0
        for f in range(size - 1, -1, -1):
            if usable >> f & 1 and not J >> f & 1:
                lf = labels[f]
                for m in labels:
                    J |= 1 << index[lf * m % n]
            ideal[f] = J
        self._memo: dict[int, int] = {}
        self._meter = meter or _Meter(budget)
        self._tables: list[list[int] | None] = [None] * size
        self._powers: list[list[int] | None] = [None] * size
        self._symmetries = monoid.symmetries
        # built on the first probe: the orbit-least first terms and, per
        # first term a, the b with (a, b) orbit-least
        self._minima = 0
        self._pairs: list[int] | None = None

    def _build_table(self, a: int) -> list[int]:
        """Per 8-bit chunk c of an allowed set, the usable x in the floor
        ideal J_a with a*x in the subset b of that chunk, at index c << 8
        | b, so a child the walk builds from a is cut to J_a at no cost
        per child.  Each element of the chunk doubles the entries built
        so far: by a copy when no x maps onto it, as for every unit when
        a is a non-unit of M(n), else by OR-ing its preimages in."""
        labels, index, n = self._labels, self._index, self._n
        la = labels[a]
        pre = [0] * self.size
        ideal = self._ideal[a]
        for x in self.candidates:
            if ideal >> x & 1:
                pre[index[labels[x] * la % n]] |= 1 << x
        table: list[int] = []
        for base in range(0, self.size, 8):
            chunk = [0]
            for y in pre[base : base + 8]:
                if y:
                    chunk += [v | y for v in chunk]
                else:
                    chunk += chunk
            table += chunk
        self._tables[a] = table
        return table

    def _build_powers(self, b: int) -> list[int]:
        """The bits of b^2, b^3, ... up to the first power that is not
        usable; b itself is left out, since _cut scans only the b in the
        allowed set.  They are distinct, so there are fewer than usable
        elements: a repeat would make an earlier power of b idempotent,
        and an idempotent product of usable elements is forbidden (see
        Strict growth in the module docstring)."""
        labels, index, n, usable = self._labels, self._index, self._n, self._usable
        lb = labels[b]
        powers = []
        x = lb
        for _ in self.candidates:
            k = index[x * lb % n]
            if not usable >> k & 1:
                break
            powers.append(1 << k)
            x = labels[k]
        self._powers[b] = powers
        return powers

    def _cut(self, A: int, floor: int, r: int) -> int:
        """The terms of A that the power bound of the module docstring
        leaves to open an extension of the state A by r >= 1 terms >=
        floor: those from floor up to the b at which the sum of mult_A,
        taken down from the top of A, reaches r; 0 when it stays short.
        Each b scanned is a term of A, so it counts once untested, and
        only its higher powers are looked up in A."""
        powers = self._powers
        left = A & self._above[floor]
        while left:
            b = left.bit_length() - 1
            left ^= 1 << b
            r -= 1
            if not r:
                return left | 1 << b
            higher = powers[b]
            if higher is None:
                higher = self._build_powers(b)
            for p in higher:
                if not A & p:
                    break
                r -= 1
                if not r:
                    return left | 1 << b
        return 0

    def _next(self, A: int, terms: int, r: int) -> tuple[int, int] | None:
        """(a, T) for the smallest term a in the mask `terms` whose child,
        of allowed set T, extends by r - 1 >= 0 further terms drawn
        (nondecreasingly) from the usable elements >= a; None if there is
        no such a.  `terms` is what _cut leaves of the allowed set A above
        a floor, so the answer is the one for every term of A from there."""
        tables, memo = self._tables, self._memo
        # the table indices c << 8 | b of the nonzero bytes b of A
        chunks = [
            c << 8 | b for c, b in enumerate(A.to_bytes(self._nbytes, "little")) if b
        ]
        rest = r - 1
        while terms:
            low = terms & -terms
            terms ^= low
            a = low.bit_length() - 1
            tbl = tables[a] or self._build_table(a)
            pre = 0
            for cb in chunks:
                pre |= tbl[cb]
            T = A & pre
            if rest == 0:
                return a, T
            if T.bit_count() < rest:
                continue
            ent = memo.get(T)
            if ent is None:
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
            sub = self._cut(T, a, rest)
            if not sub:
                continue
            if ent is None:
                self._meter.tick()
            if self._next(T, sub, rest) is not None:
                memo[T] = a << _FLOOR_SHIFT | lo << _LO_SHIFT | rest
                return a, T
            memo[T] = a << _FLOOR_SHIFT | rest << _LO_SHIFT | hi
        return None

    def exists_free(self, r: int) -> bool:
        """Is there a free sequence of length r?  The walk tries only the
        first two terms the symmetry rules of the module docstring leave
        (all, under no generator); the verdict is the same, and the memo
        keeps only entries of depth >= 2 states, which stay exact."""
        if r <= 0:
            return True
        if self._pairs is None:
            self._orbits()
        A, rest = self._usable, r - 1
        terms = self._cut(A, 0, r) & self._minima
        if not rest:
            return terms != 0
        while terms:
            low = terms & -terms
            terms ^= low
            a = low.bit_length() - 1
            _, T = self._next(A, low, 1)  # a's child, built without the memo
            sub = self._cut(T, a, rest) & self._pairs[a]
            if sub and self._next(T, sub, rest) is not None:
                return True
        return False

    def _orbits(self) -> None:
        """Read the generators and set _pairs and _minima by the sweep of
        Symmetry in the module docstring: a pair a <= b not yet met is
        the least of its orbit, which the generators then mark."""
        gens = list(self._symmetries())
        size, cands = self.size, self.candidates
        met = bytearray(size * size)
        self._pairs = pairs = [0] * size
        for i, a in enumerate(cands):
            row = a * size
            for b in cands[i:]:
                if met[row + b]:
                    continue
                pairs[a] |= 1 << b
                met[row + b] = 1
                orbit = [(a, b)]
                for x, y in orbit:  # runs on over the pairs appended below
                    for g in gens:
                        gx, gy = g[x], g[y]
                        if gx > gy:
                            gx, gy = gy, gx
                        if not met[gx * size + gy]:
                            met[gx * size + gy] = 1
                            orbit.append((gx, gy))
            self._minima |= pairs[a] & 1 << a

    def witness(self, length: int) -> tuple[int, ...]:
        """Lexicographically smallest free sequence of the given length,
        trying every term.  Its first step is the unpruned probe for that
        length, and each step proves the rest of the path, so only the
        first can fail: InconsistencyError when there is no such
        sequence."""
        terms: list[int] = []
        A, floor = self._usable, 0
        for remaining in range(length, 0, -1):
            step = self._next(A, self._cut(A, floor, remaining), remaining)
            if step is None:
                raise InconsistencyError(f"no free sequence of length {length}")
            floor, A = step
            terms.append(floor)
        return tuple(terms)

    @property
    def states_used(self) -> int:
        """States counted by every engine drawing on this one's count."""
        return self._meter.states


class Longest(NamedTuple):
    """longest_free's outcome: value and witness, or bracket and reason,
    with the states its engines explored (0 when its size guards refused
    to build one)."""

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
    the value, so floor - 1 is a free length the caller has certified.
    While floor < ceiling, one probe engine, over the monoid in its
    search order (the monoid itself when it hands over none), gallops
    upward from floor while the next length is below ceiling, so floor
    == ceiling runs no probe (cap bounds every free length, so ceiling
    = cap + 1 proves nothing more).  The witness walk then runs at the
    longest confirmed length on an engine in label order: the probe
    engine itself, memo and all, when there is no search order, else a
    fresh one built after the probe engine is dropped.  Its first step
    checks that length, so a floor too high raises InconsistencyError.
    The engines share one state count and deadline.  A budget that runs
    out leaves the bracket [length + 1, ceiling], length being the
    longest the search confirmed (floor - 1 before the first probe), and
    ceiling length + 1 once a probe refuted that."""
    meter = _Meter(budget)
    length = floor - 1
    try:
        _check_size(size, cap)
        M = monoid()
        engine = None
        if length + 1 < ceiling:
            order = M.order()
            engine = FreeSearch(M.reindexed(order) if order else M, budget, meter)
            while length + 1 < ceiling and engine.exists_free(length + 1):
                length += 1
            ceiling = length + 1  # a probe refuted it, or the caller did
            if order:
                engine = None  # its tables go before the walk builds its own
        engine = engine or FreeSearch(M, budget, meter)
        try:
            path = engine.witness(length)
        except InconsistencyError:
            raise InconsistencyError(
                f"claimed lower bound {length} refuted for n={M.n}"
            ) from None
    except BudgetExceeded as exc:
        return Longest(None, None, (length + 1, ceiling), str(exc), meter.states)
    witness = tuple(M.labels[i] for i in path)
    return Longest(length + 1, witness, None, None, meter.states)
