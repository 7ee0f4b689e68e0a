"""FreeSearch pinned directly against the brute-force oracles.

Both forbidden kinds are covered: the idempotents (the I(n) search) and
the single residue 1 (the Davenport search).  Most engines here run on
the residues themselves, built from oracle data only, so no other ebmod
layer is involved; the quotient monoid M(n) of ebconstant is pinned
against the same oracles at the end.
"""
from __future__ import annotations

import functools
import itertools
import random
import sys
from math import gcd
from types import SimpleNamespace

import pytest

from ebmod.arith import factorize
from ebmod.davenport import _unit_monoid, davenport_exact
from ebmod.ebconstant import _quotient_monoid, _quotient_size
from ebmod.errors import BudgetExceeded, DomainError
from ebmod import search
from ebmod.search import FreeSearch, SearchBudget, _Meter, longest_free

from oracles import (
    brute_davenport,
    brute_eb,
    brute_extends,
    brute_idempotents,
    brute_is_free,
    brute_is_product_one_free,
    brute_max_free_multisets,
    brute_max_product_one_free_multisets,
    brute_product_set,
    residue_monoid,
)

# n = 11 is left out: the length-10 refutations are out of reach for
# the unpruned oracles
SMALL_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def _mask(residues) -> int:
    return sum(1 << a for a in set(residues))


def eb_args(n: int) -> tuple:
    """(n, candidates, forbidden_mask, cap) of the I(n) search over every
    residue; the idempotent candidates are forbidden and must be dropped
    by the engine itself."""
    idem = brute_idempotents(n)
    return n, list(range(n)), _mask(idem), n - len(idem)


def dav_args(n: int) -> tuple:
    """The same for the Davenport search over every unit, 1 included
    (it is forbidden)."""
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    return n, units, 1 << 1, len(units) - 1


def residue_engine(args: tuple) -> FreeSearch:
    n, candidates, forbidden, _ = args
    return FreeSearch(residue_monoid(n, forbidden, candidates), _Meter(SearchBudget()))


def eb_engine(n: int) -> FreeSearch:
    return residue_engine(eb_args(n))


def dav_engine(n: int) -> FreeSearch:
    return residue_engine(dav_args(n))


def quotient_engine(n: int) -> FreeSearch:
    """The I(n) engine over M(n), as eb_exact builds it."""
    f = factorize(n)
    return FreeSearch(_quotient_monoid(f), _Meter(SearchBudget()))


def four_engines(n: int) -> list[tuple]:
    """(engine, monoid, forbidden residues, freeness oracle) of the four
    engines on n: M(n) and the units with 0 adjoined, as eb_exact and
    davenport_exact build them, and the residue oracle's I(n) and
    Davenport engines."""
    f = factorize(n)
    idem = set(brute_idempotents(n))
    units = _unit_monoid(n)
    _, eb_candidates, eb_forbidden, _ = eb_args(n)
    _, dav_candidates, dav_forbidden, _ = dav_args(n)
    setups = (
        (_quotient_monoid(f), idem, brute_is_free),
        (units, {1}, brute_is_product_one_free),
        (residue_monoid(n, eb_forbidden, eb_candidates), idem, brute_is_free),
        (residue_monoid(n, dav_forbidden, dav_candidates), {1}, brute_is_product_one_free),
    )
    return [
        (FreeSearch(monoid, _Meter(SearchBudget())), monoid, forbidden, is_free)
        for monoid, forbidden, is_free in setups
    ]


def brute_allowed(engine: FreeSearch, monoid, forbidden: set[int], seq) -> int:
    """The allowed set of the residue sequence seq, from its brute product
    set: the usable x with t*x forbidden for no product t."""
    n, labels = monoid.n, monoid.labels
    products = brute_product_set(seq, n) if seq else set()
    return _mask(
        x
        for x in engine.candidates
        if not any(t * labels[x] % n in forbidden for t in products)
    )


def child_allowed(engine: FreeSearch, A: int, a: int) -> int:
    """The child of the state A by the usable a, built as the engine's
    walk builds it: a's preimage table read at index c << 8 | b for each
    nonzero byte b, the c-th, of A, and the union intersected with A.
    That is the allowed set after appending a, cut to the floor ideal
    J_a; on the label-order and residue engines J_a is the whole monoid,
    so there it is the allowed set itself, and
    test_reach_from_a_floor_reads_only_the_floor_ideal pins the cut on
    M(n) in its search order."""
    table = engine._tables[a] or engine._build_table(a)
    pre = 0
    for c, b in enumerate(A.to_bytes(engine._nbytes, "little")):
        if b:
            pre |= table[c << 8 | b]
    return A & pre


def walk(engine: FreeSearch, A: int, floor: int, r: int):
    """_next from the state A over the terms >= floor that the power bound
    leaves, as exists_free and witness call it."""
    return engine._next(A, engine._cut(A, floor, r), r)


def longest(args: tuple, floor: int = 1, ceiling: int | None = None, budget=SearchBudget()):
    """longest_free on those arguments over the residues, bracketed by
    [floor, ceiling] (ceiling defaults to cap + 1, which proves nothing)."""
    n, candidates, forbidden, cap = args
    if ceiling is None:
        ceiling = cap + 1
    return longest_free(
        n, lambda: residue_monoid(n, forbidden, candidates), cap, floor, ceiling, budget
    )


@pytest.fixture
def probes(monkeypatch) -> list[tuple[int, bool]]:
    """(length, verdict) of every probe an engine answers from here on."""
    verdicts = []
    real = FreeSearch.exists_free

    def counted(self, r):
        got = real(self, r)
        verdicts.append((r, got))
        return got

    monkeypatch.setattr(FreeSearch, "exists_free", counted)
    return verdicts


@pytest.mark.parametrize("n", SMALL_N)
def test_eb_search_against_brute(n):
    found = longest(eb_args(n))
    assert found.value == brute_eb(n)
    assert found.witness == min(brute_max_free_multisets(n))


@pytest.mark.parametrize("n", SMALL_N)
def test_davenport_search_against_brute(n):
    found = longest(dav_args(n))
    assert found.value == brute_davenport(n)
    assert found.witness == min(brute_max_product_one_free_multisets(n))


@pytest.mark.parametrize("n", SMALL_N)
def test_quotient_search_against_brute(n):
    # M(n) searched with no theorem's help: brute_eb's value, and the
    # lexicographically smallest maximum free residue sequence
    f = factorize(n)
    size, cap = _quotient_size(f)
    found = longest_free(
        size, lambda: _quotient_monoid(f), cap, 1, cap + 1, SearchBudget()
    )
    assert found.value == brute_eb(n)
    assert found.witness == min(brute_max_free_multisets(n))


@pytest.mark.parametrize("n", range(2, 73))
def test_quotient_is_a_homomorphism_that_reflects_idempotents(n):
    f = factorize(n)
    M = _quotient_monoid(f)
    size, cap = _quotient_size(f)
    assert len(M.labels) == size and cap == size - M.forbidden.bit_count()
    assert list(M.labels) == sorted(M.labels)
    assert all(M.index[r] == i for i, r in enumerate(M.labels))
    assert all(M.labels[M.index[r]] <= r for r in range(n))  # smallest member
    for r in range(n):
        assert bool(M.forbidden >> M.index[r] & 1) == (r * r % n == r)
        for s in range(n):
            assert M.index[r * s % n] == M.product(M.index[r], M.index[s])
    if n % 4 == 2 and n > 2:  # the Z/2 component drops: M(2m) = M(m) for odd m
        assert size == _quotient_size(factorize(n // 2))[0]


def test_seeded_probe_schedule_gives_the_same_answer():
    # the answer only: the gallop from 1 also counts its confirming probes
    for n in SMALL_N:
        found = longest(eb_args(n))
        seeded = longest(eb_args(n), floor=found.value)
        assert seeded._replace(states=found.states) == found


def test_forbidden_candidates_are_dropped():
    engine = eb_engine(12)
    assert engine.candidates == [a for a in range(12) if a not in (0, 1, 4, 9)]
    only_forbidden = residue_engine((4, [0, 1], 0b11, 2))
    assert only_forbidden.candidates == []
    assert not only_forbidden.exists_free(1)
    found = longest((4, [0, 1], 0b11, 2), 1, 3)
    assert (found.value, found.witness) == (1, ())


def test_search_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    for n in SMALL_N:
        longest(eb_args(n))
        longest(dav_args(n))
    assert sys.getrecursionlimit() == limit
    found = longest((12, list(range(12)), _mask((0, 1, 4, 9)), limit))
    assert found.value is None and found.states == 0
    assert "recursion limit" in found.reason
    assert sys.getrecursionlimit() == limit


def test_the_deepest_walk_the_size_guards_admit_stays_in_the_recursion_limit():
    # D((Z/509Z)^x) = 508 by theorem, so the search is one walk of the
    # 507-term witness over 509 elements with cap 507, near the most the
    # table guard admits (cap 512 at 512 elements); it must take one
    # frame per term to fit the limit the guards leave it
    limit = sys.getrecursionlimit()
    r = davenport_exact(509)
    assert (r.value, len(r.witness)) == (508, 507)
    assert r.method.startswith("theorem") and not r.method.endswith("construction")
    assert sys.getrecursionlimit() == limit


def _random_free_sequences(n, candidates, forbidden, rng, count, max_len):
    """Random free sequences, grown one term at a time while the brute
    product set stays clear of the forbidden residues."""
    out = [()]
    for _ in range(count):
        seq: list[int] = []
        for _ in range(rng.randint(1, max_len)):
            a = rng.choice(candidates)
            if brute_product_set(seq + [a], n) & forbidden:
                break
            seq.append(a)
        out.append(tuple(seq))
    return out


@pytest.mark.parametrize(
    "n, kind",
    [(12, "eb"), (20, "eb"), (30, "eb"), (36, "eb"), (15, "dav"), (21, "dav"), (24, "dav"),
     (18, "M"), (36, "M"), (48, "M")],
)
def test_prefilter_and_image_match_brute_product_sets(n, kind):
    # kind M: the I(n) engine over the quotient monoid, whose elements are
    # classes of residues; a product set there is the set of classes of
    # the brute product set's residues.  A term extends a state freely
    # exactly when it lies in the state's allowed set, and the child's
    # allowed set, A & a^-1 A, is the one of the extended sequence
    engine = {"eb": eb_engine, "dav": dav_engine, "M": quotient_engine}[kind](n)
    forbidden = set(brute_idempotents(n)) if kind != "dav" else {1}
    # labels and classes: M(n)'s, else the identity labelling of Z/nZ
    M = _quotient_monoid(factorize(n)) if kind == "M" else residue_monoid(n, 0, ())
    rng = random.Random(n)
    sequences = _random_free_sequences(
        n, [M.labels[a] for a in engine.candidates], forbidden, rng, count=25, max_len=7
    )
    for seq in sequences:
        A = brute_allowed(engine, M, forbidden, seq)
        for a in engine.candidates:
            extended = seq + (M.labels[a],)
            blocked = not A >> a & 1
            assert blocked == bool(brute_product_set(extended, n) & forbidden)
            child = child_allowed(engine, A, a)
            assert child == brute_allowed(engine, M, forbidden, extended)
            if not blocked:
                assert walk(engine, A, a, 1) == (a, child)


@pytest.mark.parametrize("n", (7, 12, 18, 33, 64, 72))
def test_image_matches_reference_on_arbitrary_masks(n):
    # over the residues and over M(n): a proper quotient at 18 (the Z/2
    # component drops), 64 and 72.  S is an arbitrary set of elements, so
    # the child's bad set is bad(S) with pre(t) of every new product t
    # added, pre(t) being the usable x with t*x forbidden, and the child's
    # allowed set is the rest of the usable set; an arbitrary mask A
    # gives the child {x in A : a*x in A}, the table read on its own
    _, eb_candidates, eb_forbidden, _ = eb_args(n)
    eb_monoid = residue_monoid(n, eb_forbidden, eb_candidates)
    for monoid in (eb_monoid, _quotient_monoid(factorize(n))):
        engine = FreeSearch(monoid, _Meter(SearchBudget()))
        size, product = engine.size, monoid.product
        pre = [
            _mask(x for x in engine.candidates if engine.forbidden >> product(t, x) & 1)
            for t in range(size)
        ]
        usable = _mask(engine.candidates)
        rng = random.Random(1000 + n)
        for _ in range(50):
            # a few elements, as the product set of a short sequence, so
            # that bad(S) leaves much of the usable set allowed
            S = _mask(rng.randrange(size) for _ in range(rng.randint(1, 4)))
            bad = 0
            for s in range(size):
                if S >> s & 1:
                    bad |= pre[s]
            A = usable & ~bad
            mask = rng.getrandbits(size) & usable
            for a in engine.candidates:
                child_bad = bad | pre[a]
                for s in range(size):
                    if S >> s & 1:
                        child_bad |= pre[product(s, a)]
                expected = usable & ~child_bad
                assert child_allowed(engine, A, a) == expected
                if A >> a & 1:
                    assert walk(engine, A, a, 1) == (a, expected)
                assert child_allowed(engine, mask, a) == _mask(
                    x for x in engine.candidates
                    if mask >> x & 1 and mask >> product(a, x) & 1
                )


@pytest.mark.parametrize("kind, n", [("M", 12), ("M", 36), ("dav", 63)])
def test_memo_answers_do_not_depend_on_query_order(kind, n):
    # One long-lived engine answers a seeded stream of _next queries whose
    # allowed sets recur at lower and higher floors; each answer, the term
    # and its child's allowed set, must be the one a fresh engine gives
    # that query alone.  The memo keeps one entry per allowed set, and
    # every state the engine counts is one entry
    if kind == "M":
        monoid, forbidden = _quotient_monoid(factorize(n)), set(brute_idempotents(n))
    else:
        monoid, forbidden = _unit_monoid(n), {1}
    engine = FreeSearch(monoid, _Meter(SearchBudget()))
    rng = random.Random(7 * n)
    sequences = _random_free_sequences(
        n, [monoid.labels[a] for a in engine.candidates], forbidden, rng, count=30, max_len=5
    )
    # the empty product set is left out: at floor 0 its refutations are
    # whole searches, about 74k states each in the units mod 63.  Each
    # query is a reachable state: the allowed set of a free sequence
    states = [brute_allowed(engine, monoid, forbidden, seq) for seq in sequences[1:]]
    last_floor: dict[int, int] = {}
    repeats = {"lower": 0, "higher": 0}
    verdicts = set()
    for _ in range(120):
        if last_floor and rng.random() < 0.5:
            A = rng.choice(sorted(last_floor))
        else:
            A = rng.choice(states)
        floor = rng.randrange(engine.size + 1)
        r = rng.randint(1, A.bit_count() + 1)
        if A in last_floor and floor != last_floor[A]:
            repeats["lower" if floor < last_floor[A] else "higher"] += 1
        last_floor[A] = floor
        got = walk(engine, A, floor, r)
        fresh = FreeSearch(monoid, _Meter(SearchBudget()))
        assert got == walk(fresh, A, floor, r), (A, floor, r)
        assert engine.states_used == len(engine._memo)
        verdicts.add(got is not None)
    assert min(repeats.values()) > 0 and verdicts == {True, False}, (repeats, verdicts)


@pytest.mark.parametrize("n", range(3, 41))
def test_products_of_candidates_are_candidates_or_forbidden(n):
    # the allowed-set bound needs it: the remaining terms' product set
    # then lies in the usable set.  With it the bound refutes every
    # length past the usable count at the root, before any state
    for engine, monoid, _, _ in four_engines(n):
        closed = _mask(engine.candidates) | engine.forbidden
        for a in engine.candidates:
            for b in engine.candidates:
                assert closed >> monoid.product(a, b) & 1, (a, b)
        assert not engine.exists_free(len(engine.candidates) + 1)
        assert engine.states_used == 0


@pytest.mark.parametrize("n", range(3, 41))
def test_carried_bad_sets_match_their_definition(n):
    # the allowed set carried along a seeded free sequence, one _next per
    # term, against the usable set less bad(T) = {x usable : t*x forbidden
    # for some t in T}, taken from the brute product set T.  In M(n) the
    # bad set is at least as large as T, so the allowed-set bound prunes
    # wherever |T| + r > cap; in the units bad(T) = T^-1, and the two
    # tests coincide
    rng = random.Random(3 * n)
    for kind, (engine, monoid, forbidden, _) in zip("MUed", four_engines(n)):
        cls = monoid.index
        for seq in _random_free_sequences(
            n, [monoid.labels[a] for a in engine.candidates], forbidden, rng, 8, 6
        ):
            A = _mask(engine.candidates)
            for i, r in enumerate(seq):
                a, A = walk(engine, A, cls[r], 1)
                assert a == cls[r]
                assert A == brute_allowed(engine, monoid, forbidden, seq[: i + 1])
                T = len({cls[t] for t in brute_product_set(seq[: i + 1], n)})
                bad = len(engine.candidates) - A.bit_count()
                if kind == "M":
                    assert bad >= T
                elif kind == "U":
                    assert bad == T


@pytest.mark.parametrize("n", range(3, 41))
def test_reach_matches_brute_extensions(n):
    # _next from the allowed set of a seeded free prefix at a seeded
    # floor, against every nondecreasing extension the freeness oracle
    # accepts; the child it returns is the prefix with its term appended
    rng = random.Random(5 * n)
    for engine, monoid, forbidden, is_free in four_engines(n):
        labels = monoid.labels
        for seq in _random_free_sequences(
            n, [labels[a] for a in engine.candidates], forbidden, rng, 3, 3
        ):
            floor = rng.randrange(engine.size + 1)
            r = rng.randint(1, 2)
            pool = [labels[a] for a in monoid.candidates if a >= floor]
            A = brute_allowed(engine, monoid, forbidden, seq)
            got = walk(engine, A, floor, r)
            assert (got is not None) == brute_extends(seq, pool, r, n, is_free), (seq, floor, r)
            if got is not None:
                a, T = got
                assert a >= floor
                assert T == brute_allowed(engine, monoid, forbidden, seq + (labels[a],))


def power_multiplicity(monoid, A: int, b: int) -> int:
    """mult_A(b): the number of leading powers b, b^2, ... that lie in
    the set A, by the monoid's own product rule."""
    count, x = 0, b
    for _ in monoid.labels:
        if not A >> x & 1:
            break
        count += 1
        x = monoid.product(x, b)
    return count


def power_sum(monoid, A: int, floor: int) -> int:
    """The sum of mult_A(b) over the b in the set A with b >= floor."""
    return sum(power_multiplicity(monoid, A, b) for b in range(floor, len(monoid.labels)))


def test_power_bound_is_necessary():
    # From the allowed set A of a seeded free prefix at a seeded floor: if
    # the power sum of A from the floor is below r, no r nondecreasing
    # terms from the floor extend the prefix, and the engine's cut is
    # empty; otherwise the cut keeps the first term of the smallest
    # extension.  Over M(n) and the units for n <= 40; some of the
    # refuted lengths are within the allowed-set bound |A|, and some cuts
    # leave out terms above the first one
    rng = random.Random(11)
    refuted = within = trimmed = 0
    for n in range(3, 41):
        for engine, monoid, forbidden, is_free in four_engines(n)[:2]:
            labels = monoid.labels
            for seq in _random_free_sequences(
                n, [labels[a] for a in engine.candidates], forbidden, rng, 4, 5
            ):
                A = brute_allowed(engine, monoid, forbidden, seq)
                floor = rng.randrange(engine.size + 1)
                pool = [labels[a] for a in monoid.candidates if a >= floor]
                total = power_sum(monoid, A, floor)
                for r in (1, 2, 3):
                    cut = engine._cut(A, floor, r)
                    if total < r:
                        refuted += 1
                        within += r <= A.bit_count()
                        assert cut == 0
                        assert not brute_extends(seq, pool, r, n, is_free), (n, seq, floor, r)
                        continue
                    assert cut and cut & ~(A >> floor << floor) == 0
                    first = next(
                        (
                            a
                            for a in engine.candidates
                            if a >= floor
                            and brute_extends(
                                seq + (labels[a],),
                                [labels[b] for b in monoid.candidates if b >= a],
                                r - 1,
                                n,
                                is_free,
                            )
                        ),
                        None,
                    )
                    assert first is None or cut >> first & 1, (n, seq, floor, r)
                    trimmed += first is not None and cut != A >> floor << floor
    assert min(refuted, within, trimmed) > 0, (refuted, within, trimmed)


def test_reach_depends_on_the_bad_set_alone():
    # The lemma the memo key rests on, checked without the engine: group
    # the free sequences of length <= 3 in M(n) and in the units mod n by
    # their bad set, and every product set in a group must have the same
    # longest free extension from every floor.  That length is found by
    # exhaustive search over nondecreasing extensions, memoized on the
    # residue product set P, since the joined product set P | Q | P*Q
    # reads nothing else of the prefix.  In the units bad(S) = S^-1, so
    # each group there holds one product set
    merged = 0
    for n in range(2, 41):
        setups = (
            ("M", _quotient_monoid(factorize(n)), frozenset(brute_idempotents(n))),
            ("U", _unit_monoid(n), frozenset({1})),
        )
        for kind, monoid, forbidden in setups:
            labels = monoid.labels
            pool = [labels[a] for a in monoid.candidates if labels[a] not in forbidden]
            times = [[p * a % n for p in range(n)] for a in pool]

            @functools.cache
            def longest(P: frozenset) -> tuple[int, ...]:
                """Longest free extension of product set P by terms from
                pool[i:], at index i."""
                out = [0] * (len(pool) + 1)
                for i in range(len(pool) - 1, -1, -1):
                    Q = frozenset([times[i][p] for p in P]).union(P, (pool[i],))
                    out[i] = out[i + 1]
                    if Q.isdisjoint(forbidden):
                        out[i] = max(out[i], 1 + longest(Q)[i])
                return tuple(out)

            groups: dict[frozenset, set[frozenset]] = {}
            for length in (1, 2, 3):
                for seq in itertools.combinations_with_replacement(pool, length):
                    P = frozenset(brute_product_set(seq, n))
                    if P.isdisjoint(forbidden):
                        bad = frozenset(
                            x for x in pool for t in P if t * x % n in forbidden
                        )
                        groups.setdefault(bad, set()).add(P)
            for bad, sets in groups.items():
                if kind == "U":
                    assert len(sets) == 1, (n, sorted(bad))
                elif len(sets) > 1:
                    assert len({longest(P) for P in sets}) == 1, (n, sorted(bad))
                    merged += len(sets)
    assert merged > 0


def floor_ideal_setups(n: int) -> list[tuple]:
    """(kind, engine, monoid, forbidden residues) of the three engines the
    floor ideal is pinned on: M(n) in its search order ("S"), M(n) in
    label order ("M") and the units with 0 adjoined ("U")."""
    M = _quotient_monoid(factorize(n))
    idem = set(brute_idempotents(n))
    setups = (("S", M.reindexed(M.order()), idem), ("M", M, idem), ("U", _unit_monoid(n), {1}))
    return [
        (kind, FreeSearch(monoid, _Meter(SearchBudget())), monoid, forbidden)
        for kind, monoid, forbidden in setups
    ]


def brute_longest(engine: FreeSearch, monoid, P: int, floor: int, fits) -> int:
    """The most nondecreasing usable terms >= floor that extend a sequence
    whose product-set mask is P (0 for the empty sequence) with every
    joined product set passing fits: exhaustive over the joined product
    sets, P | {b} | P*b after the term b."""
    terms = [b for b in engine.candidates if b >= floor]
    product = monoid.product

    @functools.cache
    def longest(P: int, i: int) -> int:
        best = 0
        for j in range(i, len(terms)):
            b = terms[j]
            Q = P | 1 << b
            for s in range(engine.size):
                if P >> s & 1:
                    Q |= 1 << product(s, b)
            if fits(Q):
                best = max(best, 1 + longest(Q, j))
        return best

    return longest(P, 0)


@pytest.mark.parametrize("n", range(2, 41))
def test_the_floor_ideal_is_an_ideal_holding_the_usable_elements_above(n):
    # J_f, every product of a usable u >= f with an element, as the engine
    # builds it top down: closed under products with every element, and
    # holding every usable element >= f.  In label order and in the units
    # the last usable element is the unit -1, so J_f is the whole monoid
    # up to it and empty past it; in the search order the units come
    # first, and past them J_f holds no unit
    m = n // 2 if n % 4 == 2 else n  # the units of M(n) are those mod m
    for kind, engine, monoid, _ in floor_ideal_setups(n):
        size = engine.size
        whole, usable = (1 << size) - 1, engine._usable
        last = engine.candidates[-1] if engine.candidates else -1
        units = _mask(k for k in range(size) if gcd(monoid.labels[k], m) == 1)
        for f in range(size + 1):
            J = engine._ideal[f]
            assert J == _mask(
                monoid.product(u, y) for u in engine.candidates if u >= f for y in range(size)
            ), (kind, f)
            assert all(
                J >> monoid.product(x, y) & 1
                for x in range(size) if J >> x & 1
                for y in range(size)
            ), (kind, f)
            assert usable >> f << f & ~J == 0, (kind, f)
            if kind != "S":
                assert J == (whole if f <= last else 0), (kind, f)
            elif units >> f == 0:
                assert J & units == 0, f


@pytest.mark.parametrize("n", range(3, 41))
def test_reach_from_a_floor_reads_only_the_floor_ideal(n):
    # The lemma the engine's children rest on, by exhaustive search: from
    # a seeded free prefix S and floor f, the longest free extension by
    # terms >= f is the longest extension whose product set lies in
    # allowed(S), and in allowed(S) & J_f.  On the search order the
    # engine's child of a usable a is the brute allowed set of S with a
    # appended, cut to J_a.  The floors are the first one past the units,
    # where the search order's ideals start to cut, and one in the upper
    # half: from a low floor the brute search in the units mod a prime
    # near 40 takes seconds per prefix
    rng = random.Random(17 * n)
    m = n // 2 if n % 4 == 2 else n  # the units of M(n) are those mod m
    cut = 0
    for kind, engine, monoid, forbidden in floor_ideal_setups(n):
        cls = monoid.index
        units = _mask(k for k in range(engine.size) if gcd(monoid.labels[k], m) == 1)
        for seq in _random_free_sequences(
            n, [monoid.labels[a] for a in engine.candidates], forbidden, rng, 6, 5
        ):
            if not seq:
                continue
            P = _mask(cls[t] for t in brute_product_set(seq, n))
            A = brute_allowed(engine, monoid, forbidden, seq)
            for f in {units.bit_length(), rng.randrange(engine.size // 2, engine.size + 1)}:
                J = engine._ideal[f]
                whole = brute_longest(engine, monoid, P, f, lambda Q: not Q & engine.forbidden)
                assert brute_longest(engine, monoid, 0, f, lambda Q: not Q & ~A) == whole
                assert brute_longest(engine, monoid, 0, f, lambda Q: not Q & ~(A & J)) == whole
                cut += kind == "S" and J != 0 and A & ~J != 0
            if kind == "S":
                for a in engine.candidates:
                    if A >> a & 1:
                        expected = brute_allowed(
                            engine, monoid, forbidden, seq + (monoid.labels[a],)
                        )
                        assert child_allowed(engine, A, a) == expected & engine._ideal[a]
        if kind == "S":
            assert cut or not engine._usable & ~units, "no state was cut"


def test_the_power_cut_matches_its_definition():
    # _cut from every floor and for every r <= 12, on seeded states A: the
    # allowed sets of seeded free sequences and random subsets of the
    # usable set.  The definition in the module docstring: sum mult_A(b)
    # over the b in A, b itself counted, from the top of A down, and keep
    # A's terms from the floor up to the b at which the sum reaches r; 0
    # when it stays short.  Over M(n) in its search order, M(n) in label
    # order and the units, n <= 40; some cuts are 0, and some stop at a b
    # whose higher powers lie in A
    rng = random.Random(23)
    short = powers = 0
    for n in range(3, 41):
        for kind, engine, monoid, forbidden in floor_ideal_setups(n):
            labels = [monoid.labels[a] for a in engine.candidates]
            states = [
                brute_allowed(engine, monoid, forbidden, seq)
                for seq in _random_free_sequences(n, labels, forbidden, rng, 3, 4)
            ]
            states += [rng.getrandbits(engine.size) & engine._usable for _ in range(3)]
            for A in states:
                mult = {
                    b: power_multiplicity(monoid, A, b)
                    for b in range(engine.size)
                    if A >> b & 1
                }
                for floor in range(engine.size + 1):
                    top_down = sorted((b for b in mult if b >= floor), reverse=True)
                    for r in range(1, 13):
                        expected, total = 0, 0
                        for b in top_down:
                            total += mult[b]
                            if total >= r:
                                expected = _mask(x for x in mult if floor <= x <= b)
                                powers += mult[b] > 1
                                break
                        short += expected == 0
                        assert engine._cut(A, floor, r) == expected, (n, kind, A, floor, r)
    assert min(short, powers) > 0, (short, powers)


@pytest.mark.parametrize("n", (12, 30, 36, 40))
def test_preimage_tables_hold_every_brute_preimage_set(n):
    # Every entry of _build_table(a), all subsets of each 8-element chunk,
    # against the usable x in the floor ideal J_a, taken by its
    # definition, with a*x in the subset, by the monoid's own product
    # rule.  On M(n) in its search order, for its first usable unit and
    # its first usable non-unit, whose image misses every unit, so that
    # its rows of preimages include zeros.  M(n) has 12, 15, 32 and 35
    # elements, so the last chunk is partial at all but 36
    m = n // 2 if n % 4 == 2 else n  # the units of M(n) are those mod m
    M = _quotient_monoid(factorize(n))
    S = M.reindexed(M.order())
    engine = FreeSearch(S, _Meter(SearchBudget()))
    size = engine.size
    unit = [gcd(S.labels[k], m) == 1 for k in range(size)]
    terms = (
        next(a for a in engine.candidates if unit[a]),
        next(a for a in engine.candidates if not unit[a]),
    )
    for a in terms:
        J = _mask(S.product(u, y) for u in engine.candidates if u >= a for y in range(size))
        image = {x: S.product(x, a) for x in engine.candidates if J >> x & 1}
        if not unit[a]:
            assert any(unit[y] for y in range(size)) and not any(
                unit[y] for y in image.values()
            ), a
        table = engine._build_table(a)
        assert len(table) == sum(1 << min(8, size - base) for base in range(0, size, 8))
        for base in range(0, size, 8):
            for subset in range(1 << min(8, size - base)):
                expected = _mask(
                    x for x, y in image.items() if 0 <= y - base < 8 and subset >> y - base & 1
                )
                assert table[base // 8 << 8 | subset] == expected, (a, base, subset)


def test_image_tables_are_built_on_first_use():
    engine = eb_engine(36)
    assert engine._tables == [None] * engine.size
    assert engine.exists_free(3)
    built = sum(t is not None for t in engine._tables)
    assert 0 < built < len(engine.candidates)


# the first exceeds the state-space guard, the second the table guard
OUT_OF_REACH = {(2_000_000, 1_999_000): "state space", (1_000, 900): "image tables"}


@pytest.mark.parametrize("n, cap", list(OUT_OF_REACH))
def test_out_of_reach_search_is_refused_before_reading_candidates(n, cap):
    # the guards read size and cap only, so no candidate is read
    with pytest.raises(BudgetExceeded, match=OUT_OF_REACH[n, cap]):
        search._check_size(n, cap)


def test_longest_free_builds_no_monoid_the_guards_refuse():
    def unbuildable():
        raise AssertionError("monoid built before the size guards ran")

    for n, cap in OUT_OF_REACH:
        found = longest_free(n, unbuildable, cap, 1, cap + 1, SearchBudget())
        assert found.value is None and found.states == 0
        assert found.bounds == (1, cap + 1)


def test_longest_free_runs_the_size_guards_once_per_search(monkeypatch):
    calls = []
    real = search._check_size

    def counted(size, cap):
        calls.append((size, cap))
        real(size, cap)

    monkeypatch.setattr(search, "_check_size", counted)
    for args in (eb_args(12), dav_args(9)):
        calls.clear()
        assert longest(args).value is not None
        assert calls == [(args[0], args[3])]


def test_probes_gallop_from_the_seed_with_no_cap_probe(probes):
    # I(12): cap 8, longest free length 3.  The caller certifies floor - 1,
    # so the first probe is at the floor
    for floor, schedule in ((4, [4]), (1, [1, 2, 3, 4])):
        probes.clear()
        assert longest(eb_args(12), floor=floor).value == 4
        assert [r for r, _ in probes] == schedule
    # the Davenport search mod 9 (cyclic): cap 5 is the answer, so floor 6
    # meets the ceiling cap + 1 and no probe runs
    probes.clear()
    assert longest(dav_args(9), floor=6).value == 6
    assert probes == []


@pytest.mark.parametrize("n", (6, 9, 10, 12))
def test_longest_free_never_probes_at_or_past_its_ceiling(monkeypatch, probes, n):
    args = eb_args(n)
    cap, value = args[3], brute_eb(n)
    for floor in (1, value):
        for ceiling in range(value, cap + 2):
            probes.clear()
            assert longest(args, floor, ceiling).value == value
            assert all(r < ceiling for r, _ in probes), (floor, ceiling, probes)
    # floor == ceiling: no probe, and one witness walk at the floor's length
    walks = []
    real = FreeSearch.witness

    def counted(self, length):
        walks.append(length)
        return real(self, length)

    monkeypatch.setattr(FreeSearch, "witness", counted)
    probes.clear()
    assert longest(args, value, value).value == value
    assert probes == [] and walks == [value - 1]


@pytest.mark.parametrize("n", (8, 10, 12))
def test_a_spent_budget_brackets_up_to_the_ceiling(n):
    # the bracket starts past the longest confirmed length and ends at the
    # ceiling the caller proved, never at cap + 1 above it
    args = eb_args(n)
    value = brute_eb(n)
    for ceiling in range(value, args[3] + 2):
        found = longest(args, 1, ceiling, SearchBudget(max_states=1))
        assert found.value is None and found.states > 0
        lo, hi = found.bounds
        assert 1 < lo <= value <= hi == ceiling


def test_a_refutation_stays_in_the_bracket_when_the_walk_runs_out():
    # I(44) = 12: the probe refutes 12, so a budget one state short of the
    # whole search runs out in the witness walk and leaves [12, 12], not
    # [12, cap + 1]
    f = factorize(44)
    size, cap = _quotient_size(f)

    def search(budget):
        return longest_free(size, lambda: _quotient_monoid(f), cap, 12, cap + 1, budget)

    whole = search(SearchBudget())
    assert whole.value == 12
    found = search(SearchBudget(max_states=whole.states - 1))
    assert found.value is None and found.bounds == (12, 12)


@pytest.mark.parametrize(
    "kwargs",
    ({"max_states": -1}, {"max_seconds": -1.0}, {"max_seconds": float("nan")}),
)
def test_a_budget_that_bounds_nothing_is_refused(kwargs):
    # a NaN deadline never passes (monotonic() > nan is False), so the
    # search would run until killed; a negative cap bounds nothing either
    with pytest.raises(DomainError):
        SearchBudget(**kwargs)
    SearchBudget(max_states=0, max_seconds=0)  # the edges stay legal
    SearchBudget(max_seconds=float("inf"))


def _symmetric_monoids(n: int) -> list:
    """(M(n), its components) and (the units with 0 adjoined, theirs), as
    eb_exact and davenport_exact build them, each handing over generators
    of the power maps of its components p^k; M(n) drops the Z/2 one."""
    components = factorize(n).factors
    return [
        (_quotient_monoid(factorize(n)), [(p, k) for p, k in components if p ** k != 2]),
        (_unit_monoid(n), components),
    ]


def _closure(gens, size: int) -> set[tuple[int, ...]]:
    """The group the permutations gens generate: every composition of
    them, closed from the identity.  A reference for the engine, which
    never lists the group."""
    identity = tuple(range(size))
    group, todo = {identity}, [identity]
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


@pytest.mark.parametrize("n", range(2, 61))
def test_symmetries_are_automorphisms_fixing_the_forbidden_and_candidates(n):
    # each generator is a monoid automorphism fixing the forbidden mask and
    # the candidates, and together they generate the whole group of power
    # maps, (Z/lambda(p^k)Z)^x per component, not a smaller one
    for monoid, components in _symmetric_monoids(n):
        size = len(monoid.labels)
        gens = list(monoid.symmetries())
        candidates = set(monoid.candidates)
        for g in gens:
            assert sorted(g) == list(range(size)) and g != list(range(size))
            forbidden = [x for x in range(size) if monoid.forbidden >> x & 1]
            assert _mask(g[x] for x in forbidden) == monoid.forbidden
            assert {g[x] for x in candidates} == candidates
            for x in range(size):
                for y in range(size):
                    assert g[monoid.product(x, y)] == monoid.product(g[x], g[y])
        assert len({tuple(g) for g in gens}) == len(gens)
        order = 1
        for p, k in components:
            lam = 2 ** (k - 2) if p == 2 and k >= 3 else p ** (k - 1) * (p - 1)
            order *= sum(1 for e in range(lam) if gcd(e, lam) == 1)
        assert len(_closure(gens, size)) == order, (n, components)


def _probed_monoids(n: int) -> list:
    """M(n) in label order, M(n) in its search order, as the gallop's
    probes run on it, and the units with 0 adjoined."""
    (M, _), (U, _) = _symmetric_monoids(n)
    return [M, M.reindexed(M.order()), U]


@pytest.mark.parametrize("n", range(2, 41))
def test_smallest_free_sequences_pass_the_symmetry_rules(n):
    # the engine's sweep keeps exactly the orbit-least first terms and, per
    # first term a, the b whose pair (a, b) is the least of its orbit,
    # under the group the generators generate: with no generator, every
    # usable a and every usable b >= a; and the lexicographically smallest
    # free sequence of every length passes both rules, the ones every
    # probe applies
    for monoid in _probed_monoids(n):
        engine = FreeSearch(monoid, _Meter(SearchBudget()))
        engine._orbits()
        group = _closure(monoid.symmetries(), engine.size)
        usable = engine.candidates
        assert engine._minima == _mask(a for a in usable if all(g[a] >= a for g in group))
        for a in range(engine.size):
            least = [
                b for b in usable
                if a in usable and b >= a
                and all(sorted((g[a], g[b])) >= [a, b] for g in group)
            ]
            assert engine._pairs[a] == _mask(least), a
        length = 1
        while engine.exists_free(length):
            w = engine.witness(length)
            for g in group:
                assert g[w[0]] >= w[0]
                if length > 1:
                    assert sorted((g[w[0]], g[w[1]])) >= [w[0], w[1]]
            length += 1


def _orbits_by_union_find(gens, usable: list[int], size: int) -> tuple[int, list[int]]:
    """(_minima, _pairs) as a union-find finds them: join each pair
    a <= b of usable elements to sorted(g(a), g(b)) for every generator
    g, rooting each class at its least index a*size + b.  A reference
    for the engine's sweep."""
    parent = list(range(size * size))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i, a in enumerate(usable):
            ga = g[a]
            for b in usable[i:]:
                gb = g[b]
                x = root(a * size + b)
                y = root(ga * size + gb if ga <= gb else gb * size + ga)
                if x < y:
                    parent[y] = x
                else:
                    parent[x] = y
    pairs = [0] * size
    for i, a in enumerate(usable):
        for b in usable[i:]:
            if root(a * size + b) == a * size + b:
                pairs[a] |= 1 << b
    return _mask(a for a in usable if pairs[a] >> a & 1), pairs


@pytest.mark.parametrize("n", range(2, 201))
def test_the_orbit_sweep_matches_a_union_find(n):
    # the sweep's orbit-least first terms and pairs are the union-find's,
    # on every monoid a probe runs on, up to sizes the group test's
    # closure would not reach
    for monoid in _probed_monoids(n):
        engine = FreeSearch(monoid, _Meter(SearchBudget()))
        engine._orbits()
        reference = _orbits_by_union_find(
            list(monoid.symmetries()), engine.candidates, engine.size
        )
        assert (engine._minima, engine._pairs) == reference


@pytest.mark.parametrize("n", range(3, 41))
def test_symmetry_keeps_every_answer_and_never_adds_states(monkeypatch, n):
    # the full gallop from length 1, with no theorem's help, on M(n) and on
    # the units: with the group or without it, one value, witness and probe
    # schedule, and never more states with it
    f = factorize(n)
    phi = len(_unit_monoid(n).labels) - 1
    size, cap = _quotient_size(f)
    searches = (
        (size, lambda: _quotient_monoid(f), cap),
        (phi + 1, lambda: _unit_monoid(n), phi - 1),
    )
    probes = []
    real = FreeSearch.exists_free

    def counted(self, r):
        probes.append(r)
        return real(self, r)

    monkeypatch.setattr(FreeSearch, "exists_free", counted)
    for size, build, cap in searches:
        outcomes = []
        for plain in (False, True):
            probes.clear()
            monoid = (lambda: build()._replace(symmetries=tuple)) if plain else build
            found = longest_free(size, monoid, cap, 1, cap + 1, SearchBudget())
            outcomes.append((found, list(probes)))
        (pruned, pruned_probes), (plain, plain_probes) = outcomes
        assert (pruned.value, pruned.witness) == (plain.value, plain.witness)
        assert pruned_probes == plain_probes
        assert pruned.states <= plain.states, (pruned.states, plain.states)


def test_the_generators_are_read_and_the_orbits_swept_once_per_engine():
    calls = []
    M = _quotient_monoid(factorize(44))

    def symmetries():
        calls.append(1)
        return M.symmetries()

    # the witness walk tries every term and reads no generator; the first
    # probe reads them and sweeps the orbits, whose minima the next reuses
    engine = FreeSearch(M._replace(symmetries=symmetries), _Meter(SearchBudget()))
    assert engine.witness(11) and calls == [] and engine._pairs is None
    assert not engine.exists_free(12)
    pairs = engine._pairs
    assert engine.exists_free(11) and calls == [1] and engine._pairs is pairs


@pytest.mark.parametrize("n", range(2, 61))
def test_the_search_order_reindexes_an_isomorphic_monoid(n):
    # M(n) renamed by its search order, element order[k] becoming k, has
    # the products, forbidden mask, candidates and symmetries of M(n),
    # each mapped through the renaming, and no order of its own; the
    # order puts the units first, then more leading usable powers, then
    # smaller labels.  The units hand over no order
    M = _quotient_monoid(factorize(n))
    size = len(M.labels)
    order = M.order()
    assert sorted(order) == list(range(size))
    R = M.reindexed(order)
    assert R.order() == () and _unit_monoid(n).order() == ()
    assert [R.labels[k] for k in range(size)] == [M.labels[i] for i in order]
    assert all(order[R.index[r]] == M.index[r] for r in range(n))
    for k in range(size):
        assert (R.forbidden >> k & 1) == (M.forbidden >> order[k] & 1)
        for j in range(size):
            assert order[R.product(k, j)] == M.product(order[k], order[j])
    assert sorted(order[k] for k in R.candidates) == sorted(M.candidates)
    group, renamed = list(M.symmetries()), list(R.symmetries())
    assert len(renamed) == len(group)
    for g, h in zip(group, renamed):
        assert all(order[h[k]] == g[order[k]] for k in range(size))

    def powers(b):
        count, x = 0, b
        while not M.forbidden >> x & 1:
            count, x = count + 1, M.product(x, b)
        return count

    # a class is a unit of M(n) when it is one mod n, the Z/2 component
    # that M(n) drops aside
    m = n // 2 if n % 4 == 2 else n
    keys = [(gcd(M.labels[b], m) != 1, -powers(b), M.labels[b]) for b in order]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", range(3, 41))
def test_the_search_order_keeps_every_answer(probes, n):
    # the full gallop over M(n) from length 1, with no theorem's help, and
    # from the floor eb_exact takes: one value, witness, bracket and probe
    # schedule with the order and without it
    f = factorize(n)
    size, cap = _quotient_size(f)
    lower = davenport_exact(n).value + f.big_omega - f.omega
    builds = (
        lambda: _quotient_monoid(f),
        lambda: _quotient_monoid(f)._replace(order=tuple),
    )
    for floor in (1, lower):
        outcomes = []
        for build in builds:
            probes.clear()
            found = longest_free(size, build, cap, floor, cap + 1, SearchBudget())
            outcomes.append((found[:4], list(probes)))
        assert outcomes[0] == outcomes[1], (floor, outcomes)


def test_the_search_order_never_adds_refuting_states():
    # the probe that refutes I(n) at D + Omega - omega, on a fresh engine
    # over M(n) and over M(n) in its search order, for every n <= 60
    # outside the proved classes whose strict-growth cap does not already
    # settle it: never more states with the order, and far fewer in all
    totals = [0, 0]
    for n in range(2, 61):
        f = factorize(n)
        size, cap = _quotient_size(f)
        lower = davenport_exact(n).value + f.big_omega - f.omega
        if f.omega == 1 or f.is_squarefree or lower > cap:
            continue
        M = _quotient_monoid(f)
        states = []
        for monoid in (M, M.reindexed(M.order())):
            engine = FreeSearch(monoid, _Meter(SearchBudget()))
            assert not engine.exists_free(lower)
            states.append(engine.states_used)
        assert states[1] <= states[0], (n, states)
        totals = [t + s for t, s in zip(totals, states)]
    assert 3 * totals[1] < 2 * totals[0], totals


@pytest.mark.parametrize("n", (8, 12, 20, 28))
def test_a_budget_bounds_both_engines_together(monkeypatch, n):
    # every k below the whole search's count runs out with k states
    # stored over the labelled engine and the refuting one together, and
    # the count stops at the state that exceeded k
    f = factorize(n)
    size, cap = _quotient_size(f)
    engines = []
    real_init = FreeSearch.__init__

    def collected(self, *args):
        engines.append(self)
        real_init(self, *args)

    monkeypatch.setattr(FreeSearch, "__init__", collected)

    def gallop(budget):
        return longest_free(size, lambda: _quotient_monoid(f), cap, 1, cap + 1, budget)

    whole = gallop(SearchBudget())
    assert len(engines) == 2 and whole.value is not None
    for k in range(whole.states):
        engines.clear()
        found = gallop(SearchBudget(max_states=k))
        assert found.value is None and found.states == k + 1, (k, found)
        assert sum(len(e._memo) for e in engines) <= k, k


def test_the_refuting_engine_draws_on_one_count_and_deadline(monkeypatch):
    # longest_free's two engines over M(44), the probe engine in the search
    # order and the witness walk's in label order: the walk's engine counts
    # on from the probes' states and stops at the call's deadline, not at
    # one of its own
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(search, "_TIME_CHECK_PERIOD", 1)
    engines, probed = [], []
    real_init = FreeSearch.__init__

    def collected(self, *args):
        if engines:  # the walk's engine, built past the deadline
            probed.append(engines[0].states_used)
            now[0] = 11.0
        real_init(self, *args)
        engines.append(self)

    monkeypatch.setattr(FreeSearch, "__init__", collected)
    f = factorize(44)
    size, cap = _quotient_size(f)
    found = longest_free(
        size, lambda: _quotient_monoid(f), cap, 12, cap + 1, SearchBudget(max_seconds=10)
    )
    assert len(engines) == 2 and probed[0] > 0
    assert found.value is None and "10 seconds" in found.reason
    assert found.states == probed[0] + 1
    assert [e.states_used for e in engines] == [found.states] * 2


def test_the_order_is_read_on_the_first_refuting_probe_only():
    calls = []
    f = factorize(44)
    size, cap = _quotient_size(f)

    def build():
        M = _quotient_monoid(f)
        return M._replace(order=lambda: calls.append(1) or M.order())

    found = longest_free(size, build, cap, 12, 12, SearchBudget())
    assert found.value == 12 and calls == []
    found = longest_free(size, build, cap, 11, cap + 1, SearchBudget())
    assert found.value == 12 and calls == [1]
