from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

import ebmod.davenport as dav_mod
import ebmod.ebconstant as ebc_mod
from ebmod.arith import factorize, idempotents, is_idempotent
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
    eb_exact,
    extract_witness_prime_power,
    extract_witness_squarefree,
    verify_theorem,
)
from ebmod.errors import DomainError, InconsistencyError, UndecidedError
from ebmod.search import FreeSearch, SearchBudget
from ebmod.sequences import (
    ResidueSequence,
    is_idempotent_product_free,
    pi,
    running_product_sets,
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
    assert [length for length, got in verdicts if not got] == [r.value]


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
    dav_mod._cache.pop(168, None)
    r = eb_exact(168, SearchBudget(max_states=500))
    assert r.status == STATUS_UNDECIDED
    assert r.value is None and r.witness is None
    lo, hi = r.bounds
    assert lo <= hi
    assert hi == 168 - 8 + 1  # strict-growth ceiling for three prime factors


# n = 11 is left out: brute_eb(11) is out of reach
BRACKET_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


@pytest.mark.parametrize("max_states", (1, 4, 16, 64))
def test_tiny_budget_brackets_contain_brute_values(monkeypatch, max_states):
    budget = SearchBudget(max_states=max_states)
    for n in BRACKET_N:
        monkeypatch.setattr(dav_mod, "_cache", {})
        try:
            assert davenport_exact(n, budget).value == brute_davenport(n)
        except UndecidedError as exc:
            lo, hi = exc.bounds
            assert lo <= brute_davenport(n) <= hi
        monkeypatch.setattr(dav_mod, "_cache", {})
        r = eb_exact(n, budget)
        if r.status == STATUS_UNDECIDED:
            lo, hi = r.bounds
            assert lo <= brute_eb(n) <= hi
        else:
            assert r.value == brute_eb(n)


@pytest.mark.parametrize("n, max_states", ((8, 16), (10, 16), (12, 32)))
def test_undecided_bracket_uses_lengths_the_search_proved(monkeypatch, n, max_states):
    # With the Davenport floor weakened to 1, the bracket's low end can
    # only come from the free lengths the I(n) search proved before its
    # budget ran out.
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
    dav_mod._cache.pop(168, None)
    r = eb_exact(168, SearchBudget(max_states=500))
    assert (r.davenport, r.davenport_bounds, r.lower_bound) == (None, (9, 48), None)


def _engine_masks(monkeypatch) -> list[int]:
    """The forbidden mask of every engine built from here on."""
    masks = []
    real_init = FreeSearch.__init__

    def counting_init(self, n, candidates, forbidden_mask, cap, budget):
        masks.append(forbidden_mask)
        real_init(self, n, candidates, forbidden_mask, cap, budget)

    monkeypatch.setattr(FreeSearch, "__init__", counting_init)
    return masks


def test_verify_theorem_runs_one_davenport_search(monkeypatch):
    """An undecided D is not cached, so a second Davenport call would pay
    its budget again; verify_theorem takes D from eb_exact instead."""
    masks = _engine_masks(monkeypatch)
    dav_mod._cache.pop(168, None)
    rep = verify_theorem(168, SearchBudget(max_states=500))
    assert (rep.davenport, rep.davenport_bounds) == (None, (9, 48))
    assert sorted(masks) == [1 << 1, idempotents(168).mask]


def test_verify_theorem_walks_a_spent_davenport_side_once(monkeypatch):
    # D(85) = 19 by theorem, with the construction as its witness once the
    # walk runs out; construct_extremal reuses that result at the same
    # budget instead of walking again
    masks = _engine_masks(monkeypatch)
    monkeypatch.setattr(dav_mod, "_cache", {})
    rep = verify_theorem(85, SearchBudget(max_states=500))
    assert rep.davenport == 19 and rep.lower_bound_certified
    assert sorted(masks) == [1 << 1, idempotents(85).mask]


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
    dav_mod._cache.pop(168, None)
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


def test_strict_growth_along_witnesses():
    for n in (4, 6, 9, 12, 16, 18, 25, 27, 30):
        r = eb_exact(n)
        sets = running_product_sets(r.witness)
        sizes = [len(s) for s in sets]
        assert sizes == sorted(set(sizes))
        E = idempotents(n)
        assert all(s.mask & E.mask == 0 for s in sets)
