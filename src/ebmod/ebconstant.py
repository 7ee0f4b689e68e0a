"""Exact idempotent-product constants, extremal constructions,
constructive witness extractors, and the per-modulus theorem analysis.

I(n) is the least length forcing every residue sequence mod n to
contain a nonempty subsequence whose product is idempotent.  Everything
here revolves around the identity candidate

    lower_bound(n) = D((Z/nZ)^x) + (Omega(n) - omega(n)),

which is always a floor for I(n) (certified constructively by
construct_extremal) and provably equals I(n) when n is a prime power or
squarefree.  verify_theorem analyses one n into a TheoremReport, and
conjecture_scan maps it over a range.  Outside the proved classes the
report never asserts equality: it carries certified exact values,
certified brackets, or an explicit counterexample witness.  Every
witness passes its ebmod.certify check before it is returned.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from . import certify
from .arith import Factorization, factorize, idempotents, lift_to_unit
from .davenport import DEFAULT_BUDGET, davenport_exact
from .errors import DomainError, InconsistencyError, UndecidedError
from .search import SearchBudget, longest_free
from .sequences import ResidueSequence, _min_product_one_pick, find_product_one_subsequence

STATUS_EXACT = "exact"
STATUS_UNDECIDED = "undecided-at-budget"

SCAN_THEOREM_PRIME_POWER = "THEOREM_PRIME_POWER"
SCAN_THEOREM_SQUAREFREE = "THEOREM_SQUAREFREE"
SCAN_CONJECTURE_VERIFIED = "CONJECTURE_VERIFIED"
SCAN_COUNTEREXAMPLE = "COUNTEREXAMPLE"
SCAN_UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class EBResult:
    """I(n), exact or bracketed.

    Exact: value is set, witness is a maximum-length idempotent-product
    free sequence (length value - 1), bounds is None.  Undecided: value
    and witness are None and bounds carries the certified bracket.
    davenport is D((Z/nZ)^x) when the Davenport side is decided, else
    None and davenport_bounds carries its certified bracket; lower_bound
    is D + Omega - omega when D is decided, else None.
    """

    n: int
    value: int | None
    witness: ResidueSequence | None
    lower_bound: int | None
    status: str
    bounds: tuple[int, int] | None = None
    davenport: int | None = None
    davenport_bounds: tuple[int, int] | None = None


def _structure_cap(f: Factorization) -> int:
    """Strict-growth ceiling: a free product set avoids all 2^omega
    idempotents, so free length <= n - 2^omega and I <= that + 1."""
    return f.n - (1 << f.omega)


def _davenport_or_bounds(n: int, budget: SearchBudget):
    """(exact result, None) or (None, certified (lo, hi) bounds)."""
    try:
        return davenport_exact(n, budget), None
    except UndecidedError as exc:
        return None, exc.bounds


def eb_exact(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> EBResult:
    """Exact I(n) by exhaustive search over canonical residue sequences.

    The search drops idempotent residues from the candidate terms (any
    such term is instantly non-free on its own).  The Davenport side is
    computed first: its value seeds the probe schedule with the
    certified floor D + Omega - omega - 1, and it fills davenport (or
    davenport_bounds) and lower_bound on the result, so a caller needs
    no second Davenport call.
    """
    f = factorize(n)
    E = idempotents(n)
    dav, dav_bounds = _davenport_or_bounds(n, budget)
    D = dav.value if dav is not None else None
    lower = (dav_bounds[0] if D is None else D) + f.big_omega - f.omega  # a floor for I
    found = longest_free(n, range(n), E.mask, _structure_cap(f), lower, budget)
    witness = None
    if found.value is not None:
        witness = ResidueSequence(n, found.witness)
        certify.idempotent_product_free(witness, found.value, E)
        if D is not None and _equality_class(f) != "none" and found.value != lower:
            raise InconsistencyError(
                f"I({n}) = {found.value} != {lower} in a proved-equality case"
            )
    return EBResult(
        n=n,
        value=found.value,
        witness=witness,
        lower_bound=lower if D is not None else None,
        status=STATUS_EXACT if found.value is not None else STATUS_UNDECIDED,
        bounds=found.bounds,
        davenport=D,
        davenport_bounds=dav_bounds,
    )


def construct_extremal(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> ResidueSequence:
    """The extremal free sequence V . prod_i p_i^{k_i - 1}: a maximum
    product-one-free unit sequence V extended by each prime p_i repeated
    k_i - 1 times.  Its freeness certifies I(n) >= D + Omega - omega,
    independently of any exhaustive search.

    Propagates UndecidedError when the Davenport side is undecided.
    """
    f = factorize(n)
    dav = davenport_exact(n, budget)
    terms = list(dav.witness)
    for p, k in f.factors:
        terms.extend([p % n] * (k - 1))
    T = ResidueSequence(n, terms)
    certify.idempotent_product_free(T, dav.value + f.big_omega - f.omega)
    return T


def _split_threshold_args(T: ResidueSequence, n: int):
    if T.n != n:
        raise DomainError(f"sequence modulus {T.n} != {n}")
    return factorize(n)


def extract_witness_prime_power(
    T: ResidueSequence, n: int, budget: SearchBudget = DEFAULT_BUDGET
) -> ResidueSequence:
    """Constructive idempotent-product witness inside any sequence of
    threshold length D + k - 1 over Z_{p^k}.

    Pigeonhole split: T1 = terms divisible by p, T2 = the rest.  Either
    |T1| >= k — then k terms of T1 multiply to 0 mod p^k — or T2 keeps
    at least D unit terms and contains a product-one subsequence.
    """
    f = _split_threshold_args(T, n)
    if not f.is_prime_power:
        raise DomainError(f"{n} is not a prime power")
    p, k = f.factors[0]
    dav = davenport_exact(n, budget)
    threshold = dav.value + k - 1
    if len(T) < threshold:
        raise DomainError(
            f"need length >= D + k - 1 = {threshold}, got {len(T)}"
        )
    t1 = [a for a in T if a % p == 0]
    if len(t1) >= k:
        W = ResidueSequence(n, t1[:k])  # canonical order: k smallest
    else:
        t2 = [a for a in T if a % p != 0]
        if len(t2) < dav.value:
            raise InconsistencyError(
                f"pigeonhole failed: |T1|={len(t1)} < {k}, |T2|={len(t2)} < {dav.value}"
            )
        W = find_product_one_subsequence(ResidueSequence(n, t2))
        if W is None:
            raise InconsistencyError(
                f"no product-one subsequence in {len(t2)} >= D unit terms mod {n}"
            )
    certify.idempotent_product(W)
    return W


def extract_witness_squarefree(
    T: ResidueSequence, n: int, budget: SearchBudget = DEFAULT_BUDGET
) -> ResidueSequence:
    """Constructive idempotent-product witness inside any sequence of
    threshold length D over squarefree Z_n.

    Each term is lifted to the unit agreeing with it at every prime not
    dividing it; a product-one sub-multiset of the lifts exists since
    |T| >= D, and the corresponding original terms have a product that
    is 0 or 1 at every prime, hence idempotent.
    """
    f = _split_threshold_args(T, n)
    if not f.is_squarefree:
        raise DomainError(f"{n} is not squarefree")
    dav = davenport_exact(n, budget)
    if len(T) < dav.value:
        raise DomainError(f"need length >= D = {dav.value}, got {len(T)}")
    pairs = [(a, lift_to_unit(a, f)) for a in T]
    picked = _min_product_one_pick(pairs, n)
    if picked is None:
        raise InconsistencyError(
            f"no product-one sub-multiset among {len(T)} >= D lifted units mod {n}"
        )
    W = ResidueSequence(n, [orig for orig, _ in picked])
    certify.idempotent_product(W)
    return W


@dataclass(frozen=True)
class TheoremReport:
    """Analysis of one n: both constants exact or bracketed, the floor
    lower_bound = D + Omega - omega once D is decided, and a verdict.

    lower_bound_certified says the extremal construction verified that
    floor.  status: THEOREM_* rows carry the proved I(n) = lower_bound;
    CONJECTURE_VERIFIED/COUNTEREXAMPLE an exhaustively decided I(n)
    outside the proved classes; UNDECIDED brackets only.  witness is
    the searched maximum free sequence when I(n) is decided by search,
    else the extremal construction; a COUNTEREXAMPLE witness is free of
    length >= lower_bound, refuting equality.  note names the search
    that ran out of budget, if any.
    """

    n: int
    factorization: str
    omega: int
    big_omega: int
    davenport: int | None
    davenport_bounds: tuple[int, int] | None
    lower_bound: int | None
    lower_bound_certified: bool
    eb_value: int | None
    eb_bounds: tuple[int, int] | None
    equality_class: str  # "prime-power" | "squarefree" | "none"
    equality_holds: bool | None
    status: str
    witness: tuple[int, ...] | None
    note: str = ""


def _equality_class(f: Factorization) -> str:
    if f.omega == 1:
        return "prime-power"
    if f.is_squarefree:
        return "squarefree"
    return "none"


_THEOREM_STATUS = {
    "prime-power": SCAN_THEOREM_PRIME_POWER,
    "squarefree": SCAN_THEOREM_SQUAREFREE,
}


def verify_theorem(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> TheoremReport:
    """Check everything provable about n and report the rest honestly.

    (a) When D is decided, the extremal construction must verify
    idempotent-product free (the lower-bound certificate).  (b) In a
    proved class I(n) = D + Omega - omega, so the theorem gives the value
    even when the confirming search runs out, and eb_exact raises if a
    decided search disagrees.  Violations raise InconsistencyError —
    they would be implementation bugs, not findings.  Undecided
    components are reported as such, never guessed.
    """
    f = factorize(n)
    equality_class = _equality_class(f)
    eb = eb_exact(n, budget)  # decides D first and carries it
    lower, D = eb.lower_bound, eb.davenport
    construction = None
    if D is not None:
        construction = construct_extremal(n, budget)  # raises on any violation
    eb_value, eb_bounds, note = eb.value, eb.bounds, ""
    if equality_class != "none":
        status = _THEOREM_STATUS[equality_class]
        if D is not None and eb.value is None:
            eb_value, eb_bounds = lower, None  # proved equality
            note = "search confirmation hit budget; value is theorem-exact"
        elif D is None and eb.value is not None:
            note = "davenport undecided; value from direct search"
        elif D is None:
            # the theorem pins I = D + gap, but neither side was decided
            status, note = SCAN_UNDECIDED, "davenport undecided"
    elif eb.value is not None and D is not None:
        status = SCAN_CONJECTURE_VERIFIED if eb.value == lower else SCAN_COUNTEREXAMPLE
    else:
        status = SCAN_UNDECIDED
        note = "davenport undecided" if D is None else "eb search undecided"
    witness = eb.witness if eb.witness is not None else construction
    return TheoremReport(
        n=n,
        factorization=f.summary(),
        omega=f.omega,
        big_omega=f.big_omega,
        davenport=D,
        davenport_bounds=eb.davenport_bounds,
        lower_bound=lower,
        lower_bound_certified=construction is not None,
        eb_value=eb_value,
        eb_bounds=eb_bounds,
        equality_class=equality_class,
        equality_holds=(
            eb_value == lower if eb_value is not None and lower is not None else None
        ),
        status=status,
        witness=witness.as_tuple() if witness is not None else None,
        note=note,
    )


def conjecture_scan(
    n_lo: int,
    n_hi: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    jobs: int = 1,
):
    """Yield one TheoremReport per n in [n_lo, n_hi], in ascending n
    order regardless of worker count."""
    if n_lo < 2 or n_hi < n_lo:
        raise DomainError(f"bad scan range [{n_lo}, {n_hi}]")
    ns = range(n_lo, n_hi + 1)
    if jobs <= 1:
        yield from map(verify_theorem, ns, repeat(budget))
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(verify_theorem, ns, repeat(budget), chunksize=1)
