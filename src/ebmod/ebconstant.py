"""Exact idempotent-product constants, extremal constructions,
constructive witness extractors, and the equality scanner.

I(n) is the least length forcing every residue sequence mod n to
contain a nonempty subsequence whose product is idempotent.  Everything
here revolves around the identity candidate

    lower_bound(n) = D((Z/nZ)^x) + (Omega(n) - omega(n)),

which is always a floor for I(n) (certified constructively by
construct_extremal) and provably equals I(n) when n is a prime power or
squarefree.  For other n equality is exactly what conjecture_scan
gathers evidence about: the scanner never asserts it, it reports
certified exact values, certified brackets, or an explicit
counterexample witness.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .arith import Factorization, factorize, idempotents, is_idempotent, lift_to_unit
from .davenport import DEFAULT_BUDGET, davenport_exact
from .errors import BudgetExceeded, DomainError, InconsistencyError, UndecidedError
from .search import FreeSearch, SearchBudget
from .sequences import (
    ResidueSequence,
    _min_product_one_pick,
    find_product_one_subsequence,
    is_idempotent_product_free,
    pi,
)

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
    lower_bound is D + Omega - omega when the Davenport side is decided,
    else None.
    """

    n: int
    value: int | None
    witness: ResidueSequence | None
    lower_bound: int | None
    status: str
    bounds: tuple[int, int] | None = None


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

    Candidate terms exclude idempotent residues (any such term is
    instantly non-free on its own).  The Davenport side is computed
    first: its value seeds the probe schedule with the certified floor
    D + Omega - omega - 1, and fills lower_bound on the result.
    """
    f = factorize(n)
    E = idempotents(n)
    cap = _structure_cap(f)
    gap = f.big_omega - f.omega
    dav, dav_bounds = _davenport_or_bounds(n, budget)
    if dav is not None:
        lower = dav.value + gap
    else:
        lower = dav_bounds[0] + gap  # still a certified floor for I
    candidates = [a for a in range(n) if a not in E]
    engine = None
    try:
        engine = FreeSearch(
            n=n,
            candidates=candidates,
            forbidden_mask=E.mask,
            cap=cap,
            budget=budget,
        )
        free_len = engine.max_free_length(seed=lower - 1)
    except BudgetExceeded:
        proven = engine.best_true if engine is not None else 0
        return EBResult(
            n=n,
            value=None,
            witness=None,
            lower_bound=dav.value + gap if dav is not None else None,
            status=STATUS_UNDECIDED,
            bounds=(max(lower, proven + 1), cap + 1),
        )
    value = free_len + 1
    witness = ResidueSequence(n, engine.witness(free_len))
    _check_eb_result(f, value, witness, lower, cap, E, exact_dav=dav is not None)
    return EBResult(
        n=n,
        value=value,
        witness=witness,
        lower_bound=dav.value + gap if dav is not None else None,
        status=STATUS_EXACT,
    )


def _check_eb_result(f, value, witness, lower, cap, E, exact_dav):
    """Re-verify an exact I(n) against everything provable."""
    n = f.n
    if len(witness) != value - 1:
        raise InconsistencyError(
            f"witness length {len(witness)} != value {value} - 1 for n={n}"
        )
    if len(witness) > 0 and not is_idempotent_product_free(witness, E):
        raise InconsistencyError(f"witness for n={n} hits an idempotent product")
    if value < lower:
        raise InconsistencyError(
            f"I({n}) = {value} below certified lower bound {lower}"
        )
    if value > cap + 1:
        raise InconsistencyError(
            f"I({n}) = {value} above strict-growth ceiling {cap + 1}"
        )
    equality_proved = f.omega == 1 or f.is_squarefree
    if exact_dav and equality_proved and value != lower:
        raise InconsistencyError(
            f"I({n}) = {value} != {lower} in a proved-equality case"
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
    expected = dav.value + f.big_omega - f.omega - 1
    if len(T) != expected:
        raise InconsistencyError(
            f"extremal construction for n={n} has length {len(T)} != {expected}"
        )
    if len(T) > 0 and not is_idempotent_product_free(T):
        raise InconsistencyError(
            f"extremal construction for n={n} is not idempotent-product free"
        )
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
    _check_extracted(W, n)
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
    _check_extracted(W, n)
    return W


def _check_extracted(W: ResidueSequence, n: int) -> None:
    if len(W) == 0:
        raise InconsistencyError("extractor returned an empty sub-multiset")
    if not is_idempotent(pi(W), n):
        raise InconsistencyError(
            f"extracted product {pi(W)} is not idempotent mod {n}"
        )


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the consistency checks for one n: the constructive
    lower bound, exact values or brackets for both constants, and the
    equality verdict where one is available."""

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
    witness: ResidueSequence | None
    notes: tuple[str, ...]


def _equality_class(f: Factorization) -> str:
    if f.omega == 1:
        return "prime-power"
    if f.is_squarefree:
        return "squarefree"
    return "none"


def verify_theorem(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> TheoremReport:
    """Check everything provable about n and report the rest honestly.

    (a) The extremal construction must verify idempotent-product free
    (the lower bound certificate).  (b) Whenever exact values are in
    hand: I >= lower bound always, with equality for prime powers and
    squarefree n.  Violations raise InconsistencyError — they would be
    implementation bugs, not findings.  Undecided components are
    reported as such, never guessed.
    """
    f = factorize(n)
    notes: list[str] = []
    dav, dav_bounds = _davenport_or_bounds(n, budget)
    gap = f.big_omega - f.omega
    lower = dav.value + gap if dav is not None else None
    certified = False
    witness: ResidueSequence | None = None
    if dav is not None:
        witness = construct_extremal(n, budget)  # raises on any violation
        certified = True
    else:
        notes.append("davenport undecided; lower-bound construction skipped")
    eb = eb_exact(n, budget)
    equality_class = _equality_class(f)
    equality: bool | None = None
    if eb.value is not None:
        if eb.witness is not None and len(eb.witness) > 0:
            witness = eb.witness
        if lower is not None:
            equality = eb.value == lower
            if equality_class != "none" and not equality:
                raise InconsistencyError(
                    f"proved equality fails at n={n}: I={eb.value}, bound={lower}"
                )
    else:
        notes.append(f"I({n}) undecided at budget: bounds {eb.bounds}")
    return TheoremReport(
        n=n,
        factorization=f.summary(),
        omega=f.omega,
        big_omega=f.big_omega,
        davenport=dav.value if dav is not None else None,
        davenport_bounds=dav_bounds,
        lower_bound=lower,
        lower_bound_certified=certified,
        eb_value=eb.value,
        eb_bounds=eb.bounds,
        equality_class=equality_class,
        equality_holds=equality,
        witness=witness,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ScanRow:
    """One scanner verdict.  For THEOREM_* rows eb_value is the proved
    D + Omega - omega; CONJECTURE_VERIFIED/COUNTEREXAMPLE carry the
    exhaustively decided value; UNDECIDED carries brackets only.
    COUNTEREXAMPLE additionally certifies via witness: a free sequence
    of length >= lower_bound refuting equality."""

    n: int
    factorization: str
    omega: int
    big_omega: int
    davenport: int | None
    davenport_bounds: tuple[int, int] | None
    lower_bound: int | None
    eb_value: int | None
    eb_bounds: tuple[int, int] | None
    status: str
    witness: tuple[int, ...] | None
    note: str = ""


def _scan_one(n: int, budget: SearchBudget) -> ScanRow:
    f = factorize(n)
    gap = f.big_omega - f.omega
    equality_class = _equality_class(f)
    dav, dav_bounds = _davenport_or_bounds(n, budget)
    lower = dav.value + gap if dav is not None else None
    note = ""
    witness: tuple[int, ...] | None = None
    eb = eb_exact(n, budget)
    if eb.witness is not None:
        witness = eb.witness.as_tuple()
    elif dav is not None:
        witness = construct_extremal(n, budget).as_tuple()
    if equality_class != "none":
        status = (
            SCAN_THEOREM_PRIME_POWER
            if equality_class == "prime-power"
            else SCAN_THEOREM_SQUAREFREE
        )
        if dav is not None:
            eb_value = dav.value + gap  # proved equality
            eb_bounds = None
            if eb.value is None:
                note = "search confirmation hit budget; value is theorem-exact"
            elif eb.value != eb_value:
                raise InconsistencyError(
                    f"search I({n})={eb.value} contradicts theorem value {eb_value}"
                )
        elif eb.value is not None:
            eb_value, eb_bounds = eb.value, None
            note = "davenport undecided; value from direct search"
        else:
            # theorem pins I = D + gap, but neither side was decided
            status = SCAN_UNDECIDED
            note = "davenport undecided"
            eb_value, eb_bounds = None, eb.bounds
    elif eb.value is not None and dav is not None:
        eb_value, eb_bounds = eb.value, None
        status = (
            SCAN_CONJECTURE_VERIFIED if eb.value == lower else SCAN_COUNTEREXAMPLE
        )
    else:
        status = SCAN_UNDECIDED
        eb_value, eb_bounds = eb.value, eb.bounds
        note = "davenport undecided" if dav is None else "eb search undecided"
    return ScanRow(
        n=n,
        factorization=f.summary(),
        omega=f.omega,
        big_omega=f.big_omega,
        davenport=dav.value if dav is not None else None,
        davenport_bounds=dav_bounds,
        lower_bound=lower,
        eb_value=eb_value,
        eb_bounds=eb_bounds,
        status=status,
        witness=witness,
        note=note,
    )


def _scan_worker(args: tuple[int, SearchBudget]) -> ScanRow:
    return _scan_one(*args)


def conjecture_scan(
    n_lo: int,
    n_hi: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    jobs: int = 1,
):
    """Yield one ScanRow per n in [n_lo, n_hi], in ascending n order
    regardless of worker count."""
    if n_lo < 2 or n_hi < n_lo:
        raise DomainError(f"bad scan range [{n_lo}, {n_hi}]")
    ns = range(n_lo, n_hi + 1)
    if jobs <= 1:
        for n in ns:
            yield _scan_one(n, budget)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_scan_worker, [(n, budget) for n in ns], chunksize=1)
