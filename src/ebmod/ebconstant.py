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

eb_exact searches the quotient monoid M(n), not Z/nZ.  Write n as the
product of its prime powers q = p^k and split a residue r by the CRT.
In the component Z/qZ send r to its unit part r mod q when p does not
divide r, and to p^min(v_p(r), k) when it does.  The image is the monoid
U(q) | {p, ..., p^k}, where units multiply as units, a unit times p^v is
p^v, and p^a * p^b = p^min(a + b, k).  The map is a homomorphism, and r
is idempotent mod q (r = 0 or 1 mod q) exactly when its image is
idempotent there: the unit 1 or p^k, since u^2 = u forces u = 1 and
p^min(2a, k) = p^a forces a = k.  Both residues of Z/2Z are idempotent,
so a component q = 2 puts no condition and is dropped.  M(n) is the
product of the remaining components, with prod (phi(q) + k) elements,
and r is idempotent mod n exactly when its image in M(n) is.

So a sub-multiset of a residue sequence has an idempotent product
exactly when its image has, and a sequence is free exactly when its
image in M(n) is free.  Every sequence of M(n) lifts, so the longest
free sequences of Z/nZ and of M(n) have one length, and I(n) is I of
M(n).  For odd m, M(2m) = M(m), so I(2m) = I(m).  A free product set
lies among the non-idempotent elements, so strict growth caps a free
length at their number, 32 at n = 48 where n - 2^omega is 44.

The witness stays the lexicographically smallest free residue
sequence.  Label each element of M(n) with the smallest residue of its
class, and index the elements in increasing order of label.  Replacing a
term of a free sequence by its label keeps the image, so keeps it free,
and no term grows, so the sorted sequence does not grow either.  The
smallest free sequence of a given length therefore uses labels only, and
among those the engine's lexicographic order on indices is the order on
labels.  The gallop's probes run on an engine over M(n) in the search
order of _search_order; they return verdicts only, which no order
changes (Search order in the search docstring), and the witness walk
runs on a second engine in label order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from math import gcd

from . import certify
from .arith import Factorization, factorize, lift_to_unit
from .davenport import davenport_exact
from .errors import DomainError, InconsistencyError, UndecidedError
from .search import Monoid, SearchBudget, longest_free
from .sequences import ResidueSequence, _min_product_one_pick, find_product_one_subsequence
from .unitgroup import power_automorphisms

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
    is D + Omega - omega when D is decided, else None.  constructed
    marks a value pinned at that floor, by the theorem or by a probe
    refuting free length lower_bound, whose witness walk ran out or was
    refused, so the extremal construction is the witness.
    """

    n: int
    value: int | None
    witness: ResidueSequence | None
    lower_bound: int | None
    status: str
    bounds: tuple[int, int] | None = None
    davenport: int | None = None
    davenport_bounds: tuple[int, int] | None = None
    constructed: bool = False


def _quotient_size(f: Factorization) -> tuple[int, int]:
    """|M(n)| = prod (phi(p^k) + k) over the components p^k != 2, and the
    strict-growth cap, its count of non-idempotent elements (each such
    component has the two idempotents 1 and p^k).  A free product set
    avoids the idempotents, so free length <= cap and I <= cap + 1.
    Both come from the factorization alone."""
    size = idempotent = 1
    for p, k in f.factors:
        if p ** k != 2:
            size *= p ** (k - 1) * (p - 1) + k
            idempotent *= 2
    return size, size - idempotent


def _quotient_monoid(f: Factorization) -> Monoid:
    """M(n), its elements indexed in increasing order of their smallest
    residue.  A residue's class is its image in every component p^k != 2:
    its unit part u = r mod p^k when p does not divide r, else
    gcd(r, p^k) = p^min(v_p(r), k).  An element is idempotent when every
    component is the unit 1 or p^k.  Its symmetries generate the power
    maps of the components' unit parts (unitgroup.power_automorphisms),
    and its search order is _search_order's."""
    n = f.n
    components = [(p, k) for p, k in f.factors if p ** k != 2]
    moduli = [(p, p ** k) for p, k in components]
    first: dict[tuple[int, ...], int] = {}
    labels: list[int] = []
    index: list[int] = []
    forbidden = 0
    for r in range(n):
        key = tuple(_component(r, p, q) for p, q in moduli)
        i = first.get(key)
        if i is None:
            i = first[key] = len(labels)
            labels.append(r)
            if all(c == 1 or c == q for c, (_, q) in zip(key, moduli)):
                forbidden |= 1 << i
        index.append(i)
    keys = list(first)
    M = Monoid(
        n, labels, index, forbidden, range(len(labels)),
        lambda: power_automorphisms(components, keys),
    )
    units = [all(c % p for c, (p, _) in zip(key, moduli)) for key in keys]
    return M._replace(order=lambda: _search_order(M, units))


def _search_order(M: Monoid, units: list[bool]) -> list[int]:
    """The elements of M(n) in the order its refuting probes run in: the
    units first, then those with more leading usable powers b, b^2, ...
    (each sub-product of a term taken j times), then by label.  An
    element's powers are distinct up to the first idempotent, which is
    forbidden, and some power of it is idempotent, so each count ends."""

    def powers(b: int) -> int:
        count, x = 0, b
        while not M.forbidden >> x & 1:
            count, x = count + 1, M.product(x, b)
        return count

    return sorted(
        range(len(M.labels)), key=lambda b: (not units[b], -powers(b), b)
    )


def _component(r: int, p: int, q: int) -> int:
    """The image of r in the component U(q) | {p, ..., q} of M(n), q = p^k."""
    x = r % q
    return x if x % p else gcd(x, q)


def _davenport_or_bounds(n: int, budget: SearchBudget):
    """(exact result, None) or (None, certified (lo, hi) bounds)."""
    try:
        return davenport_exact(n, budget), None
    except UndecidedError as exc:
        return None, exc.bounds


def eb_exact(n: int, budget: SearchBudget = SearchBudget()) -> EBResult:
    """Exact I(n): by the paper's theorem in a proved class, else by
    exhaustive search over canonical sequences of the quotient monoid
    M(n) (see the module docstring).

    The Davenport side is computed first: it gives the certified floor
    D + Omega - omega and fills davenport (or davenport_bounds) and
    lower_bound on the result, so a caller needs no second Davenport
    call.  When D is decided and n is a prime power or squarefree, the
    theorem makes that floor the value and the search only walks its
    lexicographically smallest witness; a floor the walk cannot confirm
    raises InconsistencyError.  When that walk runs out of budget, or
    the engine's size guards refuse it, the theorem's value stands with
    construct_extremal as the witness.  Otherwise the search gallops
    from the floor to the strict-growth ceiling; when its first probe
    refutes length lower_bound, that pins the value at the floor too,
    and a witness walk that then runs out leaves it standing with the
    same witness.  The size and ceiling of M(n) come from the
    factorization, so the size guards run before its class map is
    built, and its search gets only the seconds of budget.max_seconds
    that the Davenport call left.  Idempotent classes are never
    candidate terms (each is non-free on its own).
    """
    start = time.monotonic()
    f = factorize(n)
    dav, dav_bounds = _davenport_or_bounds(n, budget)
    D = dav.value if dav is not None else None
    lower = (dav_bounds[0] if D is None else D) + f.big_omega - f.omega  # a floor for I
    size, cap = _quotient_size(f)
    proved = D is not None and _equality_class(f) != "none"
    found = longest_free(
        size,
        lambda: _quotient_monoid(f),
        cap,
        lower,
        lower if proved else cap + 1,
        budget.left(start),
    )
    value, witness, bounds = found.value, None, found.bounds
    # a theorem, or a refutation at the floor, pins the value at the floor
    constructed = value is None and D is not None and bounds == (lower, lower)
    if constructed:
        # construct_extremal certifies its own freeness at this length
        value, witness, bounds = lower, construct_extremal(n, budget), None
    elif value is not None:
        witness = ResidueSequence(n, found.witness)
        certify.idempotent_product_free(witness, value)
    return EBResult(
        n=n,
        value=value,
        witness=witness,
        lower_bound=lower if D is not None else None,
        status=STATUS_EXACT if value is not None else STATUS_UNDECIDED,
        bounds=bounds,
        davenport=D,
        davenport_bounds=dav_bounds,
        constructed=constructed,
    )


def construct_extremal(n: int, budget: SearchBudget = SearchBudget()) -> ResidueSequence:
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


def _at_threshold(T: ResidueSequence, n: int, budget: SearchBudget, squarefree: bool):
    """The extractors' shared prologue: (factorization of n, D), once T is
    a sequence mod n, n is squarefree or a prime power as the extractor
    asks, and |T| reaches the theorem's threshold I(n) = D + Omega - omega,
    which is D + k - 1 for n = p^k and D for squarefree n.  A certified
    bracket [D, D] gives D, as when a theorem fixes D but the engine's
    size guard refuses its witness walk; an open one re-raises."""
    if T.n != n:
        raise DomainError(f"sequence modulus {T.n} != {n}")
    f = factorize(n)
    if not (f.is_squarefree if squarefree else f.is_prime_power):
        kind = "squarefree" if squarefree else "a prime power"
        raise DomainError(f"{n} is not {kind}")
    try:
        D = davenport_exact(n, budget).value
    except UndecidedError as exc:
        lo, hi = exc.bounds
        if lo != hi:
            raise
        D = lo
    threshold = D + f.big_omega - f.omega
    if len(T) < threshold:
        raise DomainError(
            f"need length >= D + Omega - omega = {threshold}, got {len(T)}"
        )
    return f, D


def extract_witness_prime_power(
    T: ResidueSequence, n: int, budget: SearchBudget = SearchBudget()
) -> ResidueSequence:
    """Constructive idempotent-product witness inside any sequence of
    threshold length D + k - 1 over Z_{p^k}.

    Pigeonhole split: T1 = terms divisible by p, T2 = the rest.  Either
    |T1| >= k — then k terms of T1 multiply to 0 mod p^k — or T2 keeps
    at least D unit terms and contains a product-one subsequence.
    """
    f, D = _at_threshold(T, n, budget, squarefree=False)
    p, k = f.factors[0]
    t1: list[int] = []
    t2: list[int] = []
    for a in T:
        (t2 if a % p else t1).append(a)
    if len(t1) >= k:
        W = ResidueSequence._canonical(n, t1[:k])  # the k smallest
    elif len(t2) < D:
        raise InconsistencyError(
            f"pigeonhole failed: |T1|={len(t1)} < {k}, |T2|={len(t2)} < {D}"
        )
    else:
        W = find_product_one_subsequence(ResidueSequence._canonical(n, t2))
        if W is None:
            raise InconsistencyError(
                f"no product-one subsequence in {len(t2)} >= D unit terms mod {n}"
            )
    certify.idempotent_product(W)
    return W


def extract_witness_squarefree(
    T: ResidueSequence, n: int, budget: SearchBudget = SearchBudget()
) -> ResidueSequence:
    """Constructive idempotent-product witness inside any sequence of
    threshold length D over squarefree Z_n.

    Each term is lifted to the unit agreeing with it at every prime not
    dividing it; a product-one sub-multiset of the lifts exists since
    |T| >= D, and the corresponding original terms have a product that
    is 0 or 1 at every prime, hence idempotent.
    """
    f, _ = _at_threshold(T, n, budget, squarefree=True)
    pairs = [(a, lift_to_unit(a, f)) for a in T]
    picked = _min_product_one_pick(pairs, n)
    if picked is None:
        raise InconsistencyError(
            f"no product-one sub-multiset among {len(T)} >= D lifted units mod {n}"
        )
    W = ResidueSequence._canonical(n, [orig for orig, _ in picked])
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
    the lexicographically smallest maximum free sequence when eb_exact
    decided I(n) (in a proved class the search walks only that sequence,
    at the theorem's length), else the extremal construction; a
    COUNTEREXAMPLE witness is free of length >= lower_bound, refuting
    equality.  note names the search that ran out of budget, if any.
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


def verify_theorem(n: int, budget: SearchBudget = SearchBudget()) -> TheoremReport:
    """Check everything provable about n and report the rest honestly.

    (a) When D is decided, the extremal construction must verify
    idempotent-product free (the lower-bound certificate).  (b) In a
    proved class with D decided, I(n) = D + Omega - omega comes from the
    theorem, and eb_exact keeps that value when its witness walk runs
    out of budget.  Violations raise InconsistencyError —
    they would be implementation bugs, not findings.  Undecided
    components are reported as such, never guessed.
    """
    f = factorize(n)
    equality_class = _equality_class(f)
    eb = eb_exact(n, budget)  # decides D first and carries it
    lower, D = eb.lower_bound, eb.davenport
    construction = None
    if D is not None:
        # construct_extremal raises on any violation; eb_exact ran it already
        # when its witness is the construction
        construction = eb.witness if eb.constructed else construct_extremal(n, budget)
    note = ""
    if equality_class != "none":
        status = _THEOREM_STATUS[equality_class]
        if eb.constructed:
            note = "search confirmation hit budget; value is theorem-exact"
        elif D is None and eb.value is not None:
            note = "davenport undecided; value from direct search"
        elif D is None:
            # the theorem pins I = D + gap, but neither side was decided
            status, note = SCAN_UNDECIDED, "davenport undecided"
    elif eb.value is not None and D is not None:
        status = SCAN_CONJECTURE_VERIFIED if eb.value == lower else SCAN_COUNTEREXAMPLE
        if eb.constructed:
            note = "witness walk hit budget; witness is the construction"
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
        eb_value=eb.value,
        eb_bounds=eb.bounds,
        equality_class=equality_class,
        equality_holds=(
            eb.value == lower if eb.value is not None and lower is not None else None
        ),
        status=status,
        witness=witness.as_tuple() if witness is not None else None,
        note=note,
    )


def conjecture_scan(
    n_lo: int,
    n_hi: int,
    budget: SearchBudget = SearchBudget(),
    jobs: int = 1,
):
    """Iterator of one TheoremReport per n in [n_lo, n_hi], in ascending
    n order regardless of worker count.  The range and jobs >= 1 are
    checked here, before any row is requested, and no more workers start
    than there are rows."""
    if n_lo < 2 or n_hi < n_lo:
        raise DomainError(f"bad scan range [{n_lo}, {n_hi}]")
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    ns = range(n_lo, n_hi + 1)
    workers = min(jobs, len(ns))
    if workers <= 1:
        return map(verify_theorem, ns, repeat(budget))
    return _pooled_scan(ns, budget, workers)


def _pooled_scan(ns: range, budget: SearchBudget, workers: int):
    from concurrent.futures import ProcessPoolExecutor  # a serial scan never loads it
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(verify_theorem, ns, repeat(budget), chunksize=1)
