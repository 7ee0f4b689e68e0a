"""Exact computation of modular idempotent-product constants.

For a modulus n, I(n) is the least length such that every sequence of
residues mod n of that length contains a nonempty subsequence whose
product is idempotent (e^2 = e mod n).  The package computes I(n) and
the Davenport constant of the unit group (Z/nZ)^x exactly, builds the
extremal sequence certifying I(n) >= D((Z/nZ)^x) + Omega(n) - omega(n),
extracts explicit idempotent-product witnesses from threshold-length
sequences over prime-power and squarefree moduli (where that bound is
an equality), and scans ranges of n for the equality status elsewhere.

Every reported constant is exact and every witness re-verifies through
an independent code path; searches that exceed their budget return
certified brackets instead of guesses.
"""
from .arith import (
    Factorization,
    crt_combine,
    factorize,
    idempotents,
    is_idempotent,
    lift_to_unit,
)
from .davenport import DavenportResult, davenport_exact, davenport_formula_bound
from .ebconstant import (
    EBResult,
    TheoremReport,
    conjecture_scan,
    construct_extremal,
    eb_exact,
    extract_witness_prime_power,
    extract_witness_squarefree,
    verify_theorem,
)
from .errors import DomainError, InconsistencyError, UndecidedError
from .search import SearchBudget
from .sequences import (
    ResidueSequence,
    find_product_one_subsequence,
    is_idempotent_product_free,
    pi,
    product_set,
)
from .unitgroup import totient, unit_group_shape, units

__version__ = "0.1.0"

__all__ = [
    "DavenportResult",
    "DomainError",
    "EBResult",
    "Factorization",
    "InconsistencyError",
    "ResidueSequence",
    "SearchBudget",
    "TheoremReport",
    "UndecidedError",
    "conjecture_scan",
    "construct_extremal",
    "crt_combine",
    "davenport_exact",
    "davenport_formula_bound",
    "eb_exact",
    "extract_witness_prime_power",
    "extract_witness_squarefree",
    "factorize",
    "find_product_one_subsequence",
    "idempotents",
    "is_idempotent",
    "is_idempotent_product_free",
    "lift_to_unit",
    "pi",
    "product_set",
    "totient",
    "unit_group_shape",
    "units",
    "verify_theorem",
    "__version__",
]
