"""One pass of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is plain, traced or setup.  Prints one JSON line: set-up and
timed-part seconds, the latency of every public call made in the timed
part, peak RSS, how many items were attempted and failed their golden
check, and, when traced, the per-layer numbers.  A setup pass stops
after set-up and prints only setup_s.

run.py starts a new interpreter for each pass because davenport._cache
is process-global and FreeSearch raises the recursion limit, so a
second pass in the same process would measure cache hits.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here: import + preparation

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

MAX_STATES = 1 << 22  # every search decides by state count, never by host speed
SCAN_ARGV = [
    "scan", "--from", "2", "--to", "40", "--format", "json",
    "--max-states", str(MAX_STATES),
]
EB_NS = (44, 45, 48, 60)
DAV_NS = (63, 88)
PRIME_POWERS = {49: 2, 81: 4, 121: 2, 125: 3, 169: 2}  # n = p^k: k
SQUAREFREE = (30, 42, 66, 70, 78)
EXTRACT_CALLS = 6000


class Pass:
    """Outcome of one pass: items attempted and failed, the start and
    end of each public call on `clock`, and the first few failure
    messages."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.calls: list[tuple[float, float]] = []
        self.errors: list[str] = []

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def timed(self, fn, *args):
        """fn(*args) with its start and end recorded; an exception is
        returned, not raised, so it counts as a failed item."""
        t0 = self.clock()
        try:
            out = fn(*args)
        except Exception as exc:  # every public-call failure is a failed item
            out = exc
        self.calls.append((t0, self.clock()))
        return out


def _golden_values() -> dict:
    return json.loads((GOLDEN / "values.json").read_text())


class ScanWorkload:
    """ebmod scan --from 2 --to 40 --format json, in-process."""

    def __init__(self, ebmod, seed: int) -> None:
        import ebmod.cli

        self.cli = ebmod.cli
        self.golden = (GOLDEN / "scan-2-40.json").read_text()
        self.out = ""
        self.rc = None

    def run(self, p: Pass) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.rc = p.timed(self.cli.main, list(SCAN_ARGV))
        self.out = buf.getvalue()

    def check(self, p: Pass) -> None:
        golden_rows = json.loads(self.golden)
        try:
            rows = json.loads(self.out)
        except ValueError:
            rows = []
        ok_exit = self.rc == 0
        for i, want in enumerate(golden_rows):
            got = rows[i] if i < len(rows) else None
            p.item(ok_exit and got == want, f"scan row n={want['n']}: {got!r}")
        p.item(
            ok_exit and self.out == self.golden,
            f"scan exited with {self.rc!r}, output differs from golden bytes",
        )


class SearchWorkload:
    """One exact search per modulus, through a public entry point
    (eb_exact or davenport_exact), checked against golden values and
    witnesses.  An undecided result has no value, so it fails too."""

    def __init__(self, ebmod, entry: str, ns: tuple[int, ...]) -> None:
        self.ebmod = ebmod
        self.entry = entry
        self.ns = ns
        self.budget = ebmod.SearchBudget(max_states=MAX_STATES, max_seconds=None)
        self.golden = _golden_values()[entry]
        self.results = {}

    def run(self, p: Pass) -> None:
        fn = getattr(self.ebmod, self.entry)
        for n in self.ns:
            self.results[n] = p.timed(fn, n, self.budget)

    def check(self, p: Pass) -> None:
        for n, r in self.results.items():
            want = self.golden[str(n)]
            ok = (
                not isinstance(r, Exception)
                and r.value == want["value"]
                and list(r.witness) == want["witness"]
            )
            p.item(ok, f"{self.entry}({n}) = {r!r}, golden {want}")


class ExtractWorkload:
    """A seeded stream of threshold-length sequences for the two
    extractors.  D for the pool is decided here, in set-up, so the
    timed part never reaches FreeSearch."""

    def __init__(self, ebmod, seed: int) -> None:
        self.ebmod = ebmod
        self.budget = budget = ebmod.SearchBudget(max_states=MAX_STATES, max_seconds=None)
        golden = _golden_values()["davenport_pool"]
        moduli = sorted((*PRIME_POWERS, *SQUAREFREE))
        self.pool_errors = []
        for n in moduli:
            try:
                got = ebmod.davenport_exact(n, budget).value
            except Exception as exc:  # counted as a failed item
                got = exc
            if got != golden[str(n)]:
                self.pool_errors.append(f"D({n}) = {got!r}, golden {golden[str(n)]}")
        rng = random.Random(seed)
        units = {n: [a for a in range(1, n) if gcd(a, n) == 1] for n in PRIME_POWERS}
        self.calls = []
        for _ in range(EXTRACT_CALLS):
            n = rng.choice(moduli)
            d = golden[str(n)]
            if n in PRIME_POWERS:
                terms = [rng.choice(units[n]) for _ in range(d + PRIME_POWERS[n] - 1)]
                fn = "extract_witness_prime_power"
            else:
                terms = [rng.randrange(n) for _ in range(d)]
                fn = "extract_witness_squarefree"
            self.calls.append((fn, n, terms, ebmod.ResidueSequence(n, terms)))
        self.results = []

    def run(self, p: Pass) -> None:
        eb, budget = self.ebmod, self.budget
        self.results = [
            p.timed(getattr(eb, fn), T, n, budget) for fn, n, _, T in self.calls
        ]

    def check(self, p: Pass) -> None:
        for err in self.pool_errors:
            p.item(False, err)
        for (_, n, terms, _), W in zip(self.calls, self.results):
            p.item(_is_idempotent_witness(W, terms, n), f"extract mod {n}: {W!r}")


def _is_idempotent_witness(W, terms: list[int], n: int) -> bool:
    """W is a nonempty sub-multiset of terms whose product p has
    p*p = p mod n; checked without calling ebmod."""
    if isinstance(W, Exception) or W.n != n:
        return False
    picked = Counter(W)
    if not picked or picked - Counter(terms):
        return False
    prod = 1
    for a in W:
        prod = prod * a % n
    return prod * prod % n == prod


WORKLOADS = {
    "scan-2-40": ScanWorkload,
    # the decided non-theorem moduli below 61
    "eb-frontier": lambda ebmod, seed: SearchWorkload(ebmod, "eb_exact", EB_NS),
    # C6xC6 (n=63) and C2xC2xC10 (n=88)
    "davenport-search": lambda ebmod, seed: SearchWorkload(
        ebmod, "davenport_exact", DAV_NS
    ),
    "extract-threshold": ExtractWorkload,
}


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import ebmod

    job = WORKLOADS[name](ebmod, seed)
    setup_s = time.perf_counter() - T_START
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    from hostclock import HostClock

    clock = HostClock()
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer(clock.now)
        tracer.install()
    p = Pass(clock.now)
    with clock:
        t0 = clock.now()
        job.run(p)
        wall_s = clock.now() - t0
    job.check(p)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "scale": clock.scale(),
        "samples": len(clock.samples),
        "latencies_norm_s": [(b - a) * clock.scale(a, b) for a, b in p.calls],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "ebmod_file": ebmod.__file__,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s)
        out["sites"] = tracer.sites
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
