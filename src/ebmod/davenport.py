"""Exact Davenport constant of the unit group (Z/nZ)^x.

D is the least length forcing every unit sequence of that length to
contain a nonempty product-one subsequence; equivalently one more than
the maximum length of a product-one-free unit sequence.  The classical
sequence taking each invariant-factor generator d_i - 1 times gives
D >= 1 + sum(d_i - 1), and theorems make that floor the value for three
kinds of group: p-groups (Olson 1969, J. Number Theory 1, part I), rank
<= 2 (Olson, part II; van Emde Boas & Kruyswijk 1967) and C2+C2+C2m
(Delorme, Ordaz & Quiroz 2001, Discrete Math. 237).  Among n <= 200
only n = 168 and 195 fall outside them.  There the search engine
decides D; inside them the value is the theorem's, and the search only
walks its lexicographically smallest witness, with no refutation.
Every returned witness is re-verified through the independent
product-set code path before it leaves this module.

Budget exhaustion never produces a silent wrong answer.  A theorem's
value stands when its witness walk runs out, and the classical sequence
built from concrete generators (unitgroup.invariant_generators) becomes
the witness.  Elsewhere, and when the engine's size guards refuse the
search outright, it raises UndecidedError carrying the best certified
bounds: the formula is the floor, and the ceiling is the formula in a
theorem's class, else phi(n) (strict growth inside the unit group).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import certify
from .arith import factorize
from .errors import UndecidedError
from .search import Monoid, SearchBudget, longest_free
from .sequences import ResidueSequence
from .unitgroup import invariant_generators, totient, unit_group_shape, units

# Decided values are budget-independent, so one cache serves all callers.
# A construction witness is cached under (n, budget) only, so a larger
# budget still walks to the lexicographically smallest one.
_cache: dict[int | tuple[int, SearchBudget], "DavenportResult"] = {}


@dataclass(frozen=True)
class DavenportResult:
    """Exact D((Z/nZ)^x) with a maximum-length product-one-free witness
    (length value - 1).  method records how the value was vouched for:
    "theorem: <citation>" when a theorem gives it (the witness is the
    lexicographically smallest one, or, with " + construction" appended,
    the classical sequence because the walk ran out of budget);
    "formula-cross-checked" when the search outside the theorems' classes
    agrees with the classical 1 + sum(d_i - 1) bound; plain "exhaustive"
    when the search value exceeds it."""

    n: int
    value: int
    witness: ResidueSequence
    method: str


def davenport_formula_bound(ds: tuple[int, ...]) -> int:
    """1 + sum(d_i - 1) over the invariant factors ds: the sequence taking
    each one's generator d_i - 1 times is product-one free, so this is
    always a floor for D, and it is D wherever _theorem cites a theorem."""
    return 1 + sum(d - 1 for d in ds)


def _theorem(ds: tuple[int, ...]) -> str | None:
    """Citation of the theorem proving D = davenport_formula_bound(ds) for
    the invariant factors ds, or None when no theorem here covers them."""
    if ds and factorize(prod(ds)).omega == 1:
        return "Olson 1969 (p-group)"
    if len(ds) <= 2:
        return "Olson 1969; van Emde Boas & Kruyswijk 1967 (rank <= 2)"
    if len(ds) == 3 and ds[:2] == (2, 2):  # 2 | d_3
        return "Delorme, Ordaz & Quiroz 2001 (C2+C2+C2m)"
    return None


def _unit_monoid(n: int) -> Monoid:
    """The units mod n with 0 adjoined, indexed by increasing residue.
    Units multiply to units, so a product-set mask is phi(n) + 1 bits
    wide, not n.  0 is element 0 and no candidate; it keeps the identity
    at element 1, as in ebconstant's M(n), so the forbidden mask 1 << 1
    marks a Davenport engine in the tests and in perfbench's tracer.
    The engine drops the forbidden unit 1 from the candidates."""
    labels = [0, *units(n)]
    index = [0] * n
    for i, a in enumerate(labels):
        index[a] = i
    return Monoid(n, labels, index, 1 << 1, range(1, len(labels)))


def davenport_exact(n: int, budget: SearchBudget = SearchBudget()) -> DavenportResult:
    """Exact D((Z/nZ)^x): the theorem's value where _theorem cites one,
    else by exhaustive search over canonical unit sequences with
    product-set memoization.

    In a theorem's class the search gets the bracket [formula, formula],
    so its one probe walks the lexicographically smallest witness and
    no refutation runs; when that walk runs out of budget, the classical
    sequence is the witness.  Raises UndecidedError with bounds (lo, hi)
    when a search outside the classes runs out first, or when the
    engine's size guards refuse to search at all; both endpoints are
    certified (lo by an explicit free sequence or the classical
    construction, hi by the theorem in its class, else by strict
    growth).
    """
    got = _cache.get(n) or _cache.get((n, budget))
    if got is not None:
        return got
    f = factorize(n)  # validates n; only a validated n is ever cached
    shape = unit_group_shape(f)
    formula = davenport_formula_bound(shape)
    theorem = _theorem(shape)
    phi = totient(f)
    ceiling = phi if theorem is None else formula
    found = longest_free(
        phi + 1, lambda: _unit_monoid(n), phi - 1, formula, ceiling, budget
    )
    if found.value is not None:
        value, witness = found.value, ResidueSequence(n, found.witness)
        if theorem is not None:
            method = f"theorem: {theorem}"
        else:
            method = "formula-cross-checked" if value == formula else "exhaustive"
    elif theorem is not None and found.states:
        # the engine was built and its walk ran out: the theorem still
        # gives the value, and g_1^[d_1 - 1] ... g_s^[d_s - 1] a witness
        value, method = formula, f"theorem: {theorem} + construction"
        gens = invariant_generators(f)
        witness = ResidueSequence(n, [g for g, d in gens for _ in range(d - 1)])
    else:
        lo, hi = found.bounds
        raise UndecidedError(
            f"Davenport constant for n={n} undecided at budget: "
            f"in [{lo}, {hi}] ({found.reason})",
            bounds=found.bounds,
        )
    certify.product_one_free(witness, value)
    result = DavenportResult(n=n, value=value, witness=witness, method=method)
    _cache[n if found.value is not None else (n, budget)] = result
    return result
