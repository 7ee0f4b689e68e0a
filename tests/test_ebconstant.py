from __future__ import annotations

import dataclasses
import random
import sys
import time
from collections import Counter

import pytest

import ebmod.certify as certify_mod
import ebmod.davenport as dav_mod
import ebmod.ebconstant as ebc_mod
import ebmod.sequences as seq_mod
import ebmod.unitgroup as ug_mod
from ebmod.arith import factorize, is_idempotent
from ebmod.davenport import davenport_exact
from ebmod.ebconstant import (
    SCAN_CONJECTURE_VERIFIED,
    SCAN_THEOREM_PRIME_POWER,
    SCAN_THEOREM_SQUAREFREE,
    SCAN_UNDECIDED,
    STATUS_EXACT,
    STATUS_UNDECIDED,
    conjecture_scan,
    construct_extremal,
    _quotient_monoid,
    eb_exact,
    extract_witness_prime_power,
    extract_witness_squarefree,
    verify_theorem,
)
from ebmod.errors import DomainError, InconsistencyError, UndecidedError
from ebmod.search import FreeSearch, SearchBudget
from ebmod.sequences import (
    ResidueSequence,
    _idempotent_mask,
    is_idempotent_product_free,
    pi,
    product_set,
)

from oracles import _searched_eb, brute_davenport, brute_eb, brute_is_free


def test_eb_examples():
    r = eb_exact(4)
    assert r.value == 3 and r.witness.as_tuple() == (2, 3)
    r = eb_exact(2)
    assert r.value == 1 and r.witness.as_tuple() == ()
    r = eb_exact(6)
    assert r.value == 2 and r.witness.as_tuple() == (2,)


def test_eb_against_brute_small():
    # n=11 omitted: the full length-10 refutation is out of reach for
    # the unpruned oracle (it is covered by the prime-power identity)
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12):
        assert eb_exact(n).value == brute_eb(n)


def test_eb_witness_is_lex_smallest_maximum():
    from oracles import brute_max_free_multisets

    for n in (4, 6, 9, 10, 12):
        assert eb_exact(n).witness.as_tuple() == min(brute_max_free_multisets(n))


def test_eb_witness_free_and_right_length():
    for n in range(2, 25):
        r = eb_exact(n)
        assert r.status == STATUS_EXACT
        w = list(r.witness)
        assert len(w) == r.value - 1
        if len(w) <= 14:
            # The subset-enumeration oracle is exponential in the witness
            # length; apply it only where it is cheap.
            assert brute_is_free(w, n)
        else:
            # Longer witnesses (primes near 25 give length p - 2): check
            # through the library's closure-based freeness predicate, a
            # code path independent of the search engine's chunked tables.
            assert is_idempotent_product_free(r.witness)


def test_eb_value_vs_lower_bound_and_cap():
    for n in range(2, 41):
        f = factorize(n)
        r = eb_exact(n)
        assert r.lower_bound == davenport_exact(n).value + f.big_omega - f.omega
        assert r.value >= r.lower_bound
        assert r.value <= n - (1 << f.omega) + 1
        if f.omega == 1 or f.is_squarefree:
            # eb_exact takes the theorem's value here; the full search
            # up to the strict-growth ceiling checks the theorem
            found = _searched_eb(n, r.lower_bound)
            assert found.value == r.value == r.lower_bound


# every n <= 40 outside the proved classes, and the two quotients of the
# benchmark's frontier that differ from Z/nZ
OUTSIDE_N = tuple(
    n for n in range(2, 41) if factorize(n).omega > 1 and not factorize(n).is_squarefree
) + (45, 48)


@pytest.mark.parametrize("n", OUTSIDE_N)
def test_quotient_search_matches_the_residue_search(n):
    # eb_exact searches M(n); the independent search runs over Z/nZ itself
    r = eb_exact(n)
    found = _searched_eb(n, r.lower_bound)
    assert (r.value, r.witness.as_tuple()) == (found.value, found.witness)


def test_twice_an_odd_modulus_has_the_same_constant():
    # I(2m) = I(m) for odd m: the Z/2 component of M(2m) drops out.  The
    # search over Z/2mZ itself checks it while it is fast.
    for m in range(3, 26, 2):
        r = eb_exact(2 * m)
        assert r.value == eb_exact(m).value, m
        if m <= 21:
            assert _searched_eb(2 * m, r.lower_bound).value == r.value, m


def test_out_of_reach_rows_are_undecided_before_any_linear_work(monkeypatch):
    def boom(*args):
        raise AssertionError("O(n) work before the size guards")

    for mod in (ug_mod, dav_mod):
        monkeypatch.setattr(mod, "units", boom)
    monkeypatch.setattr(ebc_mod, "_quotient_monoid", boom)
    for mod in (seq_mod, certify_mod):
        monkeypatch.setattr(mod, "_idempotent_mask", boom)
    with pytest.raises(UndecidedError) as info:
        davenport_exact(10000019)  # a prime: Olson's theorem closes the bracket
    assert info.value.bounds == (10000018, 10000018)
    r = eb_exact(999999999999)  # 3^3 * 7 * 11 * 13 * 37 * 101 * 9901
    assert r.status == STATUS_UNDECIDED and r.value is None
    assert r.davenport is None and r.davenport_bounds is not None


def test_verify_theorem_builds_the_construction_once(monkeypatch):
    calls = []
    real = ebc_mod.construct_extremal

    def counted(n, budget=SearchBudget()):
        calls.append(n)
        return real(n, budget)

    monkeypatch.setattr(ebc_mod, "construct_extremal", counted)
    budget = SearchBudget(max_states=1000)
    # 570's witness walk decides in 36 states; 102's takes 1406 and runs
    # out, so eb_exact's witness is the construction, which verify_theorem
    # reuses
    for n, value, constructed in ((570, 38, False), (102, 17, True)):
        calls.clear()
        rep = verify_theorem(n, budget)
        assert calls == [n]
        assert rep.eb_value == rep.lower_bound == value and rep.lower_bound_certified
        assert eb_exact(n, budget).constructed is constructed


def test_a_refutation_at_the_floor_keeps_the_value_when_its_walk_runs_out():
    # 68 = 4*17 lies outside the proved classes.  Refuting 18 takes 24605
    # states and the walk 3308 more, so at 26000 the walk runs out, the
    # refutation pins I(68) at the floor 18 and the construction is the
    # witness
    budget = SearchBudget(max_states=26000)
    r = eb_exact(68, budget)
    assert (r.status, r.value, r.lower_bound, r.constructed) == (STATUS_EXACT, 18, 18, True)
    assert r.witness == construct_extremal(68, budget)
    rep = verify_theorem(68, budget)
    assert (rep.status, rep.eb_value) == (SCAN_CONJECTURE_VERIFIED, 18)
    assert rep.note == "witness walk hit budget; witness is the construction"
    assert rep.witness == r.witness.as_tuple()


def _eb_verdicts(monkeypatch) -> list[tuple[int, bool]]:
    """(length, verdict) of every probe an I(n) engine answers."""
    verdicts = []
    real = FreeSearch.exists_free

    def counted(self, r):
        got = real(self, r)
        if self.forbidden != 1 << 1:  # not a Davenport engine
            verdicts.append((r, got))
        return got

    monkeypatch.setattr(FreeSearch, "exists_free", counted)
    return verdicts


def test_proved_class_rows_run_no_refutation(monkeypatch):
    verdicts = _eb_verdicts(monkeypatch)
    for n in range(2, 41):
        f = factorize(n)
        if f.omega > 1 and not f.is_squarefree:
            continue
        verdicts.clear()
        r = eb_exact(n)
        assert all(got for _, got in verdicts), (n, verdicts)
        assert r.witness.as_tuple() == _searched_eb(n, r.lower_bound).witness


@pytest.mark.parametrize("n", (12, 18, 20))
def test_rows_outside_the_proved_classes_refute_once(monkeypatch, n):
    verdicts = _eb_verdicts(monkeypatch)
    r = eb_exact(n)
    # one refutation, at the value, unless the strict-growth cap proves it:
    # M(18) = M(9) has 6 non-idempotent elements, so I(18) <= 7 = its floor
    cap = ebc_mod._quotient_size(factorize(n))[1]
    refuted = [] if r.value == cap + 1 else [r.value]
    assert [length for length, got in verdicts if not got] == refuted


def test_a_theorem_floor_that_is_too_high_is_refuted(monkeypatch):
    real = ebc_mod._davenport_or_bounds

    def inflated(m, budget):
        dav, bounds = real(m, budget)
        return dataclasses.replace(dav, value=dav.value + 1), bounds

    monkeypatch.setattr(ebc_mod, "_davenport_or_bounds", inflated)
    # D((Z/10Z)^x) = 4 = I(10), so the inflated floor 5 claims length 4
    with pytest.raises(InconsistencyError, match="claimed lower bound 4 refuted for n=10"):
        eb_exact(10)


def test_eb_undecided_at_tiny_budget():
    r = eb_exact(168, SearchBudget(max_states=500))
    assert r.status == STATUS_UNDECIDED
    assert r.value is None and r.witness is None
    lo, hi = r.bounds
    assert lo <= hi
    # strict-growth ceiling in M(168): (4 + 3) * 3 * 7 = 147 classes, 8 idempotent
    assert hi == 147 - 8 + 1


# n = 11 is left out: brute_eb(11) is out of reach
BRACKET_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


@pytest.mark.parametrize("max_states", (1, 4, 16, 64))
def test_tiny_budget_brackets_contain_brute_values(monkeypatch, max_states):
    budget = SearchBudget(max_states=max_states)
    for n in BRACKET_N:
        try:
            assert davenport_exact(n, budget).value == brute_davenport(n)
        except UndecidedError as exc:
            lo, hi = exc.bounds
            assert lo <= brute_davenport(n) <= hi
        r = eb_exact(n, budget)
        f = factorize(n)
        if f.omega == 1 or f.is_squarefree:
            # D is a theorem's here, so I(n) = D + Omega - omega is proved
            assert (r.status, r.value) == (STATUS_EXACT, brute_eb(n)), (n, r.bounds)
        if r.status == STATUS_UNDECIDED:
            lo, hi = r.bounds
            assert lo <= brute_eb(n) <= hi
        else:
            assert r.value == brute_eb(n)


@pytest.mark.parametrize("n, max_states", ((8, 4), (10, 1), (12, 2)))
def test_undecided_bracket_uses_lengths_the_search_proved(monkeypatch, n, max_states):
    # With the Davenport floor weakened to 1, the bracket's low end can
    # only come from the free lengths the I(n) search proved before its
    # budget ran out.  The budgets bind in M(n): that search takes 5
    # states in M(8), 3 in M(10) = Z/5Z and 3 in M(12), counted over its
    # two engines, since the gallop's probes run on a fresh engine in the
    # search order and the witness walk then pays on the labelled one.
    monkeypatch.setattr(
        ebc_mod, "_davenport_or_bounds", lambda m, budget: (None, (1, m))
    )
    f = factorize(n)
    r = eb_exact(n, SearchBudget(max_states=max_states))
    assert r.status == STATUS_UNDECIDED
    lo, hi = r.bounds
    assert 1 + f.big_omega - f.omega < lo <= brute_eb(n) <= hi


def test_eb_result_carries_the_davenport_side():
    r = eb_exact(12)
    assert (r.davenport, r.davenport_bounds, r.lower_bound) == (3, None, 4)
    r = eb_exact(168, SearchBudget(max_states=500))
    assert (r.davenport, r.davenport_bounds, r.lower_bound) == (None, (9, 48), None)


def _engine_masks(monkeypatch) -> list[int]:
    """The forbidden mask of every engine built from here on."""
    masks = []
    real_init = FreeSearch.__init__

    def counting_init(self, monoid, *args):
        masks.append(monoid.forbidden)
        real_init(self, monoid, *args)

    monkeypatch.setattr(FreeSearch, "__init__", counting_init)
    return masks


def test_verify_theorem_runs_one_davenport_search(monkeypatch):
    """An undecided D is not cached, so a second Davenport call would pay
    its budget again; verify_theorem takes D from eb_exact instead."""
    masks = _engine_masks(monkeypatch)
    rep = verify_theorem(168, SearchBudget(max_states=500))
    assert (rep.davenport, rep.davenport_bounds) == (None, (9, 48))
    # one Davenport engine, then M(168)'s probe engine in the search order,
    # whose budget runs out before any witness walk needs a second
    M = _quotient_monoid(factorize(168))
    assert masks == [1 << 1, M.reindexed(M.order()).forbidden]


def test_the_i_search_gets_the_seconds_the_davenport_search_left():
    # D((Z/195Z)^x) has no theorem here and runs out at the deadline; the
    # M(195) search then has no seconds left and stops at its first
    # deadline check, so the call takes about max_seconds, not twice it
    budget = SearchBudget(max_seconds=2)
    start = time.monotonic()
    r = eb_exact(195, budget)
    assert r.status == STATUS_UNDECIDED and r.davenport_bounds == (16, 96)
    assert time.monotonic() - start < 1.5 * budget.max_seconds


def test_a_proved_class_row_stays_undecided_when_d_does():
    # 195 = 3*5*13 is squarefree, so the theorem pins I = D, but D(C2+C4+C12)
    # has no theorem here and the search for either constant runs out
    rep = verify_theorem(195, SearchBudget(max_states=500))
    assert (rep.status, rep.note) == (SCAN_UNDECIDED, "davenport undecided")
    assert (rep.davenport_bounds, rep.eb_bounds) == ((16, 96), (16, 188))
    assert not rep.lower_bound_certified and rep.witness is None


def test_verify_theorem_walks_a_spent_davenport_side_once(monkeypatch):
    # D(85) = 19 by theorem, with the construction as its witness once the
    # walk runs out; construct_extremal reuses that result at the same
    # budget instead of walking again
    masks = _engine_masks(monkeypatch)
    davenport_exact.cache_clear()
    rep = verify_theorem(85, SearchBudget(max_states=500))
    assert rep.davenport == 19 and rep.lower_bound_certified
    assert sorted(masks) == [1 << 1, _quotient_monoid(factorize(85)).forbidden]


def test_construct_examples():
    assert construct_extremal(12).as_tuple() == (2, 5, 7)
    assert construct_extremal(5).as_tuple() == (2, 2, 2)
    assert construct_extremal(8).as_tuple() == (2, 2, 3, 5)


def test_construct_is_free_with_certified_length():
    for n in range(2, 41):
        f = factorize(n)
        T = construct_extremal(n)
        d = davenport_exact(n).value
        assert len(T) == d + f.big_omega - f.omega - 1
        assert is_idempotent_product_free(T)


def test_extract_prime_power_examples():
    W = extract_witness_prime_power(ResidueSequence(4, (2, 2, 3)), 4)
    assert W.as_tuple() == (2, 2) and pi(W) == 0
    W = extract_witness_prime_power(ResidueSequence(4, (3, 3, 1)), 4)
    assert W.as_tuple() == (1,)
    W = extract_witness_prime_power(ResidueSequence(9, (3, 3, 3, 3, 3, 3, 3)), 9)
    assert W.as_tuple() == (3, 3) and pi(W) == 0


def test_extract_prime_power_preconditions():
    with pytest.raises(DomainError):
        extract_witness_prime_power(ResidueSequence(12, (5, 7, 2)), 12)
    with pytest.raises(DomainError):
        extract_witness_prime_power(ResidueSequence(4, (3, 2)), 4)  # too short
    with pytest.raises(DomainError):
        extract_witness_prime_power(ResidueSequence(8, (3, 3)), 4)  # modulus clash


def test_extract_squarefree_examples():
    W = extract_witness_squarefree(ResidueSequence(6, (2, 5)), 6)
    assert W.as_tuple() == (2, 5) and is_idempotent(pi(W), 6)
    W = extract_witness_squarefree(ResidueSequence(6, (5, 5)), 6)
    assert W.as_tuple() == (5, 5)
    T15 = ResidueSequence(15, (1, 2, 4, 7, 8))  # length 5 = D(15)
    W = extract_witness_squarefree(T15, 15)
    assert W.as_tuple() == (1,)


def test_extract_squarefree_preconditions():
    with pytest.raises(DomainError):
        extract_witness_squarefree(ResidueSequence(4, (2, 2, 3)), 4)
    with pytest.raises(DomainError):
        extract_witness_squarefree(ResidueSequence(6, (5,)), 6)  # below D


def test_extractors_take_a_d_the_theorem_pins_past_the_size_guard():
    # D((Z/1009Z)^x) = D(C1008) = 1008 by Olson, but the engine's size guard
    # refuses the witness walk, so davenport_exact leaves the bracket [1008, 1008]
    with pytest.raises(UndecidedError) as info:
        davenport_exact(1009)
    assert info.value.bounds == (1008, 1008)
    rng = random.Random(1009)
    T = ResidueSequence(1009, [rng.randrange(1, 1009) for _ in range(1008)])
    W = extract_witness_prime_power(T, 1009)
    certify_mod.idempotent_product(W)
    assert not Counter(W) - Counter(T)
    # 4097 = 17 * 241 is squarefree and D = D(C16+C240) = 255 is pinned alike
    T = ResidueSequence(4097, [rng.randrange(4097) for _ in range(255)])
    W = extract_witness_squarefree(T, 4097)
    certify_mod.idempotent_product(W)
    assert not Counter(W) - Counter(T)


def test_prime_power_extractor_takes_the_traced_product_one_route(monkeypatch):
    # perfbench's sequences.product_one_s layer times the extractor's
    # product-one step through find_product_one_subsequence, so a unit-heavy
    # threshold sequence must reach it, once, through ebconstant's binding
    calls = []
    real = ebc_mod.find_product_one_subsequence

    def counted(T):
        calls.append(T)
        return real(T)

    monkeypatch.setattr(ebc_mod, "find_product_one_subsequence", counted)
    rng = random.Random(169)
    units = [a for a in range(1, 169) if a % 13]
    threshold = davenport_exact(169).value + 1  # D + k - 1 for 13^2
    T = ResidueSequence(169, [rng.choice(units) for _ in range(threshold)])
    W = extract_witness_prime_power(T, 169)
    certify_mod.idempotent_product(W)
    assert len(calls) == 1


def test_one_extraction_factorizes_n_once_when_d_is_cached(monkeypatch):
    """The extractors' prologue factorizes n, and davenport_exact reads a
    cached D before it would factorize n again.  Every module binding of
    factorize is counted, as the benchmark's tracer counts them."""
    calls = []
    real = factorize

    def counted(n):
        calls.append(n)
        return real(n)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("ebmod") and hasattr(mod, "factorize"):
            monkeypatch.setattr(mod, "factorize", counted)
    for extract, n, terms in (
        (extract_witness_prime_power, 9, (2, 4, 5, 7, 8, 2, 4)),  # D + 2 - 1
        (extract_witness_squarefree, 15, (1, 2, 4, 7, 8)),  # D
    ):
        T = ResidueSequence(n, terms)
        extract(T, n)  # caches D and the unit group's coordinates
        calls.clear()
        extract(T, n)
        assert calls == [n]


def test_extractors_on_random_threshold_sequences():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.choice((4, 8, 9, 16, 25, 27))
        f = factorize(n)
        k = f.factors[0][1]
        length = davenport_exact(n).value + k - 1
        T = ResidueSequence(n, [rng.randrange(n) for _ in range(length)])
        W = extract_witness_prime_power(T, n)
        assert len(W) > 0 and is_idempotent(pi(W), n)
        assert not Counter(W) - Counter(T)
    for _ in range(150):
        n = rng.choice((6, 10, 14, 15, 21, 30))
        length = davenport_exact(n).value
        T = ResidueSequence(n, [rng.randrange(n) for _ in range(length)])
        W = extract_witness_squarefree(T, n)
        assert len(W) > 0 and is_idempotent(pi(W), n)
        assert not Counter(W) - Counter(T)


def test_verify_theorem_reports():
    rep = verify_theorem(9)
    assert rep.equality_class == "prime-power"
    assert rep.equality_holds is True
    assert rep.eb_value == rep.davenport + 1  # one extra prime factor with k=2
    rep = verify_theorem(30)
    assert rep.equality_class == "squarefree"
    assert rep.equality_holds is True
    assert rep.eb_value == rep.davenport
    rep = verify_theorem(12)
    assert rep.equality_class == "none"
    assert rep.lower_bound == 4 and rep.lower_bound_certified
    assert rep.equality_holds is True  # exact search agrees at n=12


def test_scan_range_2_to_10_all_theorem():
    rows = list(conjecture_scan(2, 10))
    assert [r.n for r in rows] == list(range(2, 11))
    for r in rows:
        assert r.status in {SCAN_THEOREM_PRIME_POWER, SCAN_THEOREM_SQUAREFREE}
        assert r.eb_value is not None
        assert r.witness is not None and len(r.witness) == r.eb_value - 1


def test_scan_statuses_and_consistency():
    rows = list(conjecture_scan(2, 20))
    by_n = {r.n: r for r in rows}
    assert by_n[16].status == SCAN_THEOREM_PRIME_POWER
    assert by_n[15].status == SCAN_THEOREM_SQUAREFREE
    assert by_n[12].status == SCAN_CONJECTURE_VERIFIED
    assert by_n[18].status == SCAN_CONJECTURE_VERIFIED
    assert by_n[12].eb_value == 4
    assert by_n[18].eb_value == 7
    for r in rows:
        assert r.eb_value == r.lower_bound  # conjecture holds on 2..20
        assert brute_is_free(list(r.witness), r.n)


def test_scan_undecided_rows_carry_brackets():
    rows = list(conjecture_scan(168, 168, SearchBudget(max_states=500)))
    (row,) = rows
    assert row.status == SCAN_UNDECIDED
    assert row.eb_value is None
    assert row.eb_bounds is not None and row.eb_bounds[0] <= row.eb_bounds[1]
    assert row.davenport_bounds is not None


def test_scan_parallel_matches_serial():
    serial = list(conjecture_scan(2, 14))
    parallel = list(conjecture_scan(2, 14, jobs=2))
    assert [(r.n, r.status, r.eb_value, r.witness) for r in serial] == [
        (r.n, r.status, r.eb_value, r.witness) for r in parallel
    ]


def test_scan_rejects_bad_range():
    with pytest.raises(DomainError):
        list(conjecture_scan(1, 5))
    with pytest.raises(DomainError):
        list(conjecture_scan(10, 5))


def test_scan_checks_its_range_before_any_row_is_requested():
    for jobs in (1, 2):
        with pytest.raises(DomainError):
            conjecture_scan(5, 2, jobs=jobs)


def test_scan_rejects_fewer_than_one_job_before_any_row_is_requested():
    for jobs in (0, -1):
        with pytest.raises(DomainError, match="jobs"):
            conjecture_scan(2, 3, jobs=jobs)


def test_strict_growth_along_witnesses():
    for n in (4, 6, 9, 12, 16, 18, 25, 27, 30):
        r = eb_exact(n)
        terms = r.witness.as_tuple()
        sets = [
            product_set(ResidueSequence(n, terms[:i])) for i in range(1, len(terms) + 1)
        ]
        sizes = [s.bit_count() for s in sets]
        assert sizes == sorted(set(sizes))
        E = _idempotent_mask(n)
        assert all(s & E == 0 for s in sets)
