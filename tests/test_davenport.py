from __future__ import annotations

import pytest

import ebmod.davenport as dav_mod
from ebmod import certify, search
from ebmod.arith import factorize
from ebmod.davenport import (
    DavenportResult,
    davenport_exact,
    davenport_formula_bound,
)
from ebmod.errors import DomainError, UndecidedError
from ebmod.search import FreeSearch, SearchBudget
from ebmod.sequences import product_set
from ebmod.unitgroup import totient, unit_group_shape

from oracles import _searched_davenport, brute_davenport, brute_is_product_one_free


def test_examples():
    r = davenport_exact(5)
    assert r.value == 4 and r.witness.as_tuple() == (2, 2, 2)
    r = davenport_exact(2)
    assert r.value == 1 and r.witness.as_tuple() == ()
    r = davenport_exact(12)
    assert r.value == 3 and r.witness.as_tuple() == (5, 7)


def test_against_brute_small():
    for n in range(2, 11):
        assert davenport_exact(n).value == brute_davenport(n)


def test_cyclic_prime_values():
    # unit group of Z_p is cyclic of order p-1, whose Davenport constant
    # is classically its order; the full search proves it exhaustively
    for p in (2, 3, 5, 7, 11):
        assert _searched_davenport(p).value == max(p - 1, 1)


def test_formula_bound_examples():
    assert davenport_formula_bound((2, 2)) == 3
    assert davenport_formula_bound(()) == 1
    assert davenport_formula_bound((4,)) == 4
    assert davenport_formula_bound((2, 12)) == 13


def test_value_at_least_formula_and_at_most_phi():
    for n in range(2, 41):
        f = factorize(n)
        r = _searched_davenport(n)
        assert davenport_formula_bound(unit_group_shape(f)) <= r.value <= max(
            totient(f), 1
        )
        assert davenport_exact(n).value == r.value


def test_witness_is_free_and_maximal_length():
    for n in range(2, 41):
        r = davenport_exact(n)
        w = r.witness.as_tuple()
        assert len(w) == r.value - 1
        if len(w) <= 14:
            # The subset-enumeration oracle is exponential in the witness
            # length; apply it only where it is cheap.
            assert brute_is_product_one_free(list(w), n)
        else:
            # Longer witnesses (primes near 40 give length p - 2): check
            # through the library's closure-based product set, which is a
            # code path independent of the search engine's chunked tables.
            assert not product_set(r.witness) >> 1 & 1


P_GROUP = "theorem: Olson 1969 (p-group)"
RANK_2 = "theorem: Olson 1969; van Emde Boas & Kruyswijk 1967 (rank <= 2)"
C2_C2_C2M = "theorem: Delorme, Ordaz & Quiroz 2001 (C2+C2+C2m)"
METHODS = {
    5: P_GROUP, 8: P_GROUP, 12: P_GROUP, 15: P_GROUP, 16: P_GROUP, 24: P_GROUP,
    7: RANK_2, 21: RANK_2, 31: RANK_2, 56: C2_C2_C2M, 84: C2_C2_C2M,
}


def test_method_field():
    for n, method in METHODS.items():
        r = davenport_exact(n)
        assert r.method == method
        assert r.value == _searched_davenport(n).value


def test_method_field_of_a_searched_value(monkeypatch):
    # with no theorem to cite, the search decides D and checks the formula
    # the answer must not outlive the patch, so the memo is cleared both ways
    davenport_exact.cache_clear()
    monkeypatch.setattr(dav_mod, "_theorem", lambda shape: None)
    try:
        r = davenport_exact(12)
    finally:
        davenport_exact.cache_clear()
    assert (r.value, r.method) == (3, "formula-cross-checked")


@pytest.mark.parametrize("n", (56, 72, 84, 88))
def test_c2_c2_c2m_rule_matches_the_search(n):
    shape = unit_group_shape(factorize(n))
    assert shape[:2] == (2, 2)
    found = _searched_davenport(n)
    r = davenport_exact(n)
    assert found.value == r.value == davenport_formula_bound(shape)
    assert found.witness == r.witness.as_tuple()


def test_result_is_cached():
    a = davenport_exact(12)
    b = davenport_exact(12)
    assert a is b
    assert isinstance(a, DavenportResult)


@pytest.mark.parametrize("n", (1, 10**12 + 1))
def test_invalid_n_raises_although_the_cache_is_read_first(n):
    with pytest.raises(DomainError):
        davenport_exact(n)


def test_undecided_at_tiny_budget():
    with pytest.raises(UndecidedError) as info:
        davenport_exact(168, SearchBudget(max_states=500))
    lo, hi = info.value.bounds
    shape = unit_group_shape(factorize(168))
    assert lo >= davenport_formula_bound(shape)
    assert hi == totient(factorize(168))
    assert lo <= hi


def test_undecided_at_tiny_time_budget():
    with pytest.raises(UndecidedError):
        davenport_exact(195, SearchBudget(max_seconds=0.05))


def test_only_168_and_195_below_200_lack_a_theorem():
    uncovered = [
        n for n in range(2, 201)
        if dav_mod._theorem(unit_group_shape(factorize(n))) is None
    ]
    assert uncovered == [168, 195]
    assert [unit_group_shape(factorize(n)) for n in uncovered] == [
        (2, 2, 2, 6), (2, 4, 12)
    ]


def test_theorem_rows_run_no_refutation(monkeypatch):
    verdicts = []
    real = FreeSearch.exists_free

    def counted(self, r):
        got = real(self, r)
        if self.forbidden == 1 << 1:  # a Davenport engine
            verdicts.append((r, got))
        return got

    monkeypatch.setattr(FreeSearch, "exists_free", counted)
    davenport_exact.cache_clear()
    for n in range(2, 101):
        verdicts.clear()
        r = davenport_exact(n)
        assert all(got for _, got in verdicts), (n, verdicts)
        if n <= 40:
            assert r.witness.as_tuple() == _searched_davenport(n).witness


@pytest.mark.parametrize("n", (5, 7, 13, 85, 93))
def test_spent_walk_keeps_the_theorem_value_with_the_construction(n):
    r = davenport_exact(n, SearchBudget(max_states=1))
    assert r.value == davenport_formula_bound(unit_group_shape(factorize(n)))
    certify.product_one_free(r.witness, r.value)
    assert r.method.endswith(" + construction")


def test_a_refused_theorem_search_brackets_at_the_formula():
    # Olson's rank-2 theorem gives D((Z/4097Z)^x) = 255, but the engine's
    # size guard refuses even the witness walk there: the row stays
    # undecided, with the theorem closing its bracket
    with pytest.raises(UndecidedError) as info:
        davenport_exact(4097)
    assert info.value.bounds == (255, 255)


def test_a_construction_witness_is_cached_for_its_budget_only():
    tiny = SearchBudget(max_states=1)
    r = davenport_exact(13, tiny)
    assert r.witness.as_tuple() == (11,) * 11  # a generator of (Z/13Z)^x
    assert davenport_exact(13, tiny) is r
    assert davenport_exact(13).witness.as_tuple() == (2,) * 11  # lex-smallest


def test_a_decided_value_does_not_answer_a_call_at_another_budget():
    # each call's answer depends on its own arguments only: D(13) decided
    # at the default budget does not stand in for a walk that runs out
    assert davenport_exact(13).witness.as_tuple() == (2,) * 11
    r = davenport_exact(13, SearchBudget(max_states=1))
    assert r.witness.as_tuple() == (11,) * 11
    assert r.method == RANK_2 + " + construction"


def test_davenport_91_decides_within_ten_thousand_states(monkeypatch):
    real = search._Meter.tick

    def capped(self):
        real(self)
        assert self.states <= 10_000, "the walk should need no refutation"

    monkeypatch.setattr(search._Meter, "tick", capped)
    davenport_exact.cache_clear()
    r = davenport_exact(91)
    assert r.value == 17 and not r.method.endswith(" + construction")
