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

Budget exhaustion never produces a silent wrong answer.  When a theorem
or a refutation of the formula's length pins D at the formula and the
witness walk runs out, the value stands with the classical sequence
(unitgroup.invariant_generators) as witness.  Elsewhere, and when the
engine's size guards refuse the search outright, it raises
UndecidedError carrying the best certified bounds: the formula is the
floor, and the ceiling is the formula in a theorem's class, else phi(n)
(strict growth inside the unit group).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from . import certify
from .arith import factorize
from .errors import UndecidedError
from .search import Monoid, SearchBudget, longest_free
from .sequences import ResidueSequence
from .unitgroup import (
    invariant_generators,
    power_automorphisms,
    totient,
    unit_group_shape,
    units,
)


@dataclass(frozen=True)
class DavenportResult:
    """Exact D((Z/nZ)^x) with a maximum-length product-one-free witness
    (length value - 1).  method records how the value was vouched for:
    "theorem: <citation>" when a theorem gives it; "formula-cross-checked"
    when the search outside the theorems' classes agrees with the
    classical 1 + sum(d_i - 1) bound; plain "exhaustive" when the search
    value exceeds it.  The witness is the lexicographically smallest one,
    or, with " + construction" appended to either of the first two, the
    classical sequence because the walk ran out of budget."""

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
    The engine drops the forbidden unit 1 from the candidates.  Its
    symmetries generate the power maps of the units' CRT components
    (unitgroup.power_automorphisms), which read a unit as itself mod
    each component and fix 0, whose key is no unit's."""
    labels = [0, *units(n)]
    index = [0] * n
    for i, a in enumerate(labels):
        index[a] = i
    return Monoid(
        n, labels, index, 1 << 1, range(1, len(labels)),
        lambda: power_automorphisms(factorize(n), labels),
    )


# A repeated call with equal arguments returns the same object; a call
# with another budget decides afresh, and a raised error is not kept.
@cache
def davenport_exact(n: int, budget: SearchBudget = SearchBudget()) -> DavenportResult:
    """Exact D((Z/nZ)^x): the theorem's value where _theorem cites one,
    else by exhaustive search over canonical unit sequences, memoized on
    bad(S) = S^-1, the inverses of the product set.

    In a theorem's class the search gets the bracket [formula, formula],
    so it only walks the lexicographically smallest witness and no
    probe runs.  When a walk runs out with the bracket closed at the
    formula (by the theorem or a refutation), the classical sequence is
    the witness.  Raises UndecidedError with bounds (lo, hi) when a
    search outside the classes runs out short of that, or when the
    engine's size guards refuse to search at all; both endpoints are
    certified (lo by an explicit free sequence or the classical
    construction, hi by the theorem in its class, else by strict
    growth).
    """
    f = factorize(n)
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
    elif found.bounds == (formula, formula) and found.states:
        # a built engine's walk ran out after a theorem or a refutation closed
        # the bracket at the formula, which g_1^[d_1-1] ... g_s^[d_s-1] witnesses
        cited = f"theorem: {theorem}" if theorem else "formula-cross-checked"
        value, method = formula, cited + " + construction"
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
    return DavenportResult(n=n, value=value, witness=witness, method=method)
