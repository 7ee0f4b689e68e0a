"""FreeSearch pinned directly against the brute-force oracles.

Both forbidden kinds are covered: the idempotents (the I(n) search) and
the single residue 1 (the Davenport search).  The engines here are
built from oracle data only, so no other ebmod layer is involved.
"""
from __future__ import annotations

import functools
import random
import sys
from math import gcd

import pytest

from ebmod.errors import BudgetExceeded
from ebmod.search import FreeSearch, SearchBudget

from oracles import (
    brute_davenport,
    brute_eb,
    brute_idempotents,
    brute_max_free_multisets,
    brute_max_product_one_free_multisets,
    brute_product_set,
)

# n = 11 is left out: the length-10 refutations are out of reach for
# the unpruned oracles
SMALL_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def _mask(residues) -> int:
    return sum(1 << a for a in set(residues))


def eb_engine(n: int) -> FreeSearch:
    """I(n) search over every residue; the idempotent candidates are
    forbidden and must be dropped by the engine itself."""
    idem = brute_idempotents(n)
    return FreeSearch(
        n=n,
        candidates=list(range(n)),
        forbidden_mask=_mask(idem),
        cap=n - len(idem),
        budget=SearchBudget(),
    )


def dav_engine(n: int) -> FreeSearch:
    """Davenport search over every unit, 1 included (it is forbidden)."""
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    return FreeSearch(
        n=n,
        candidates=units,
        forbidden_mask=1 << 1,
        cap=len(units) - 1,
        budget=SearchBudget(),
    )


@functools.cache
def _reference_tables(n: int, a: int) -> list[list[int]]:
    tables = []
    for c in range((n + 7) // 8):
        row = [0] * 256
        for j in range(8):
            if 8 * c + j < n:
                row[1 << j] = 1 << ((8 * c + j) * a % n)
        for v in range(3, 256):
            low = v & -v
            if v != low:
                row[v] = row[v & (v - 1)] | row[low]
        tables.append(row)
    return tables


def reference_image(n: int, a: int, S: int) -> int:
    """Product set after appending a to a sequence with product set S,
    the way the engine once computed it: per-chunk tables indexed
    [chunk][byte], and S split into bytes on every call."""
    tables = _reference_tables(n, a)
    img = 1 << a
    for c, b in enumerate(S.to_bytes((n + 7) // 8, "little")):
        if b:
            img |= tables[c][b]
    return S | img


@pytest.mark.parametrize("n", SMALL_N)
def test_eb_search_against_brute(n):
    engine = eb_engine(n)
    length = engine.max_free_length()
    assert length + 1 == brute_eb(n)
    assert engine.witness(length) == min(brute_max_free_multisets(n))


@pytest.mark.parametrize("n", SMALL_N)
def test_davenport_search_against_brute(n):
    engine = dav_engine(n)
    length = engine.max_free_length()
    assert length + 1 == brute_davenport(n)
    assert engine.witness(length) == min(brute_max_product_one_free_multisets(n))


def test_seeded_probe_schedule_gives_the_same_answer():
    for n in SMALL_N:
        length = eb_engine(n).max_free_length()
        engine = eb_engine(n)
        assert engine.max_free_length(seed=length) == length
        assert engine.best_true == length


def test_forbidden_candidates_are_dropped():
    engine = eb_engine(12)
    assert engine.candidates == [a for a in range(12) if a not in (0, 1, 4, 9)]
    only_forbidden = FreeSearch(
        n=4, candidates=[0, 1], forbidden_mask=0b11, cap=2, budget=SearchBudget()
    )
    assert only_forbidden.candidates == []
    assert not only_forbidden.exists_free(1)
    assert only_forbidden.max_free_length() == 0


def test_search_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    for n in SMALL_N:
        eb_engine(n).max_free_length()
        dav_engine(n).max_free_length()
    assert sys.getrecursionlimit() == limit
    with pytest.raises(BudgetExceeded):
        FreeSearch(
            n=12,
            candidates=list(range(12)),
            forbidden_mask=_mask((0, 1, 4, 9)),
            cap=limit,
            budget=SearchBudget(),
        )
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
    [(12, "eb"), (20, "eb"), (30, "eb"), (36, "eb"), (15, "dav"), (21, "dav"), (24, "dav")],
)
def test_prefilter_and_image_match_brute_product_sets(n, kind):
    engine = eb_engine(n) if kind == "eb" else dav_engine(n)
    forbidden = set(brute_idempotents(n)) if kind == "eb" else {1}
    rng = random.Random(n)
    sequences = _random_free_sequences(
        n, engine.candidates, forbidden, rng, count=25, max_len=7
    )
    for seq in sequences:
        S = _mask(brute_product_set(seq, n)) if seq else 0
        chunks = engine._chunks(S)
        for idx, a in enumerate(engine.candidates):
            extended = brute_product_set(seq + (a,), n)
            assert bool(S & engine._bad[idx]) == bool(extended & forbidden)
            image = engine._image(S, chunks, idx)
            assert image == reference_image(n, a, S) == _mask(extended)


@pytest.mark.parametrize("n", (7, 12, 33, 64))
def test_image_matches_reference_on_arbitrary_masks(n):
    engine = eb_engine(n)
    rng = random.Random(1000 + n)
    for _ in range(50):
        S = rng.getrandbits(n)
        chunks = engine._chunks(S)
        for idx, a in enumerate(engine.candidates):
            assert engine._image(S, chunks, idx) == reference_image(n, a, S)
