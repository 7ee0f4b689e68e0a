"""Witness certificates: one checking function per kind of witness.

The library runs these before it returns a witness, the CLI's --check
runs them again on the witness it parsed back from its own output, and
verify runs no_free_extension on its maximum witness.  A failure raises
InconsistencyError: a witness that fails is a bug, never a finding.

Only the witness itself is checked here.  Range and theorem checks
(formula <= D <= phi, I(n) = D + Omega - omega in a proved class) stay
with the caller that knows the bound.
"""
from __future__ import annotations

from math import gcd

from .arith import is_idempotent
from .errors import InconsistencyError
from .sequences import (
    ResidueSequence, _closure_step, _idempotent_mask, is_idempotent_product_free,
    pi, product_set,
)


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
    if len(T) > 0 and product_set(T) >> 1 & 1:
        raise InconsistencyError(f"witness for n={T.n} is not product-one free")


def idempotent_product_free(T: ResidueSequence, value: int | None = None) -> None:
    """No nonempty sub-multiset of T has an idempotent product; with a
    claimed value, T also has its length value - 1, so I(n) >= value."""
    if value is not None:
        _check_length(T, value)
    if len(T) > 0 and not is_idempotent_product_free(T):
        raise InconsistencyError(
            f"witness for n={T.n} is not idempotent-product free"
        )


def no_free_extension(T: ResidueSequence) -> int:
    """T is maximal: appending any non-idempotent residue a puts an
    idempotent into the product set.  Runs through the closure step, not
    the search tables, so it checks the search independently.  Returns
    the number of extensions checked, n - 2^omega."""
    n = T.n
    E = _idempotent_mask(n)
    S = product_set(T)
    for a in range(n):
        if not E >> a & 1 and not _closure_step(S, a, n) & E:
            raise InconsistencyError(f"witness for n={n} extends by {a} and stays free")
    return n - E.bit_count()


def idempotent_product(W: ResidueSequence) -> None:
    """W is nonempty and its product is idempotent mod n."""
    if len(W) == 0:
        raise InconsistencyError("extractor returned an empty sub-multiset")
    if not is_idempotent(pi(W), W.n):
        raise InconsistencyError(
            f"extracted product {pi(W)} is not idempotent mod {W.n}"
        )
