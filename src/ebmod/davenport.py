"""Exact Davenport constant of the unit group (Z/nZ)^x.

D is the least length forcing every unit sequence of that length to
contain a nonempty product-one subsequence; equivalently one more than
the maximum length of a product-one-free unit sequence, which is what
the search engine computes.  Every returned witness is re-verified
through the independent product-set code path before it leaves this
module.

Budget exhaustion never produces a silent wrong answer: it raises
UndecidedError carrying the best certified bounds, with the classical
1 + sum(d_i - 1) construction as the floor and phi(n) (strict growth
inside the unit group) as the ceiling.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import certify
from .arith import factorize
from .errors import UndecidedError
from .search import SearchBudget, longest_free
from .sequences import ResidueSequence
from .unitgroup import GroupShape, totient, unit_group_shape, units

# decided values are budget-independent, so one cache serves all callers
_cache: dict[int, "DavenportResult"] = {}


@dataclass(frozen=True)
class DavenportResult:
    """Exact D((Z/nZ)^x) with a maximum-length product-one-free witness
    (length value - 1).  method records how the value was vouched for:
    "formula-cross-checked" when the exhaustive search agrees with the
    classical 1 + sum(d_i - 1) bound, plain "exhaustive" when the search
    value exceeds it (the bound is only a floor in general)."""

    n: int
    value: int
    witness: ResidueSequence
    method: str


def davenport_formula_bound(shape: GroupShape) -> int:
    """Classical lower bound 1 + sum(d_i - 1): the sequence taking each
    invariant-factor generator d_i - 1 times is product-one free."""
    return 1 + sum(d - 1 for d in shape.invariant_factors)


def davenport_exact(n: int, budget: SearchBudget = SearchBudget()) -> DavenportResult:
    """Exact D((Z/nZ)^x) by exhaustive search over canonical unit
    sequences with product-set memoization.

    Raises UndecidedError with bounds (lo, hi) when the budget is
    exhausted first; both endpoints are certified (lo by an explicit
    free sequence or the classical construction, hi by strict growth).
    """
    f = factorize(n)  # validates n
    got = _cache.get(n)
    if got is not None:
        return got
    shape = unit_group_shape(f)
    formula = davenport_formula_bound(shape)
    phi = totient(f)
    # the search drops the forbidden unit 1 from the candidates
    found = longest_free(n, units(n), 1 << 1, phi - 1, formula, phi, budget)
    if found.value is None:
        lo, hi = found.bounds
        raise UndecidedError(
            f"Davenport constant for n={n} undecided at budget: "
            f"in [{lo}, {hi}] ({found.reason})",
            bounds=found.bounds,
        )
    witness = ResidueSequence(n, found.witness)
    certify.product_one_free(witness, found.value)
    method = "formula-cross-checked" if found.value == formula else "exhaustive"
    result = DavenportResult(n=n, value=found.value, witness=witness, method=method)
    _cache[n] = result
    return result
