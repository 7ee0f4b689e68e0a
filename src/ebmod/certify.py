"""Witness certificates: one checking function per kind of witness.

The library runs these before it returns a witness, and the CLI's
--check runs the same functions again on the witness it parsed back
from its own output.  A failure raises InconsistencyError: a returned
witness that does not verify is a bug, never a finding.

Only the witness itself is checked here.  Range and theorem checks
(formula <= D <= phi, I(n) = D + Omega - omega in a proved class) stay
with the caller that knows the bound.
"""
from __future__ import annotations

from math import gcd

from .arith import IdempotentSet, is_idempotent
from .errors import InconsistencyError
from .sequences import ResidueSequence, is_idempotent_product_free, pi, product_set


def _check_length(T: ResidueSequence, value: int) -> None:
    if len(T) != value - 1:
        raise InconsistencyError(
            f"witness length {len(T)} != value {value} - 1 for n={T.n}"
        )


def product_one_free(T: ResidueSequence, value: int) -> None:
    """T witnesses D((Z/nZ)^x) >= value: value - 1 units, and no
    nonempty sub-multiset multiplies to 1."""
    if any(gcd(a, T.n) != 1 for a in T):
        raise InconsistencyError(f"witness for n={T.n} contains a non-unit")
    _check_length(T, value)
    if len(T) > 0 and 1 in product_set(T):
        raise InconsistencyError(f"witness for n={T.n} is not product-one free")


def idempotent_product_free(
    T: ResidueSequence, value: int | None = None, E: IdempotentSet | None = None
) -> None:
    """No nonempty sub-multiset of T has an idempotent product; with a
    claimed value, T also has its length value - 1, so I(n) >= value."""
    if value is not None:
        _check_length(T, value)
    if len(T) > 0 and not is_idempotent_product_free(T, E):
        raise InconsistencyError(
            f"witness for n={T.n} is not idempotent-product free"
        )


def idempotent_product(W: ResidueSequence) -> None:
    """W is nonempty and its product is idempotent mod n."""
    if len(W) == 0:
        raise InconsistencyError("extractor returned an empty sub-multiset")
    if not is_idempotent(pi(W), W.n):
        raise InconsistencyError(
            f"extracted product {pi(W)} is not idempotent mod {W.n}"
        )
