"""Per-layer spans and counters for one traced pass of the benchmark.

Tracing lives entirely in the benchmark: it wraps ebmod's public
functions from outside, at every module attribute they are bound to
(``factorize`` alone is imported by name into six modules, so patching
``ebmod.arith.factorize`` would miss most calls).  Private helpers such
as ``FreeSearch._image`` and ``_reach`` are not wrapped; timing them
needs spans inside the program.

A span's self time is its duration minus the time covered by its
direct child spans.  Unwrapped frames in between (``max_free_length``,
``_scan_one``) are transparent: their time lands in the nearest wrapped
caller.
"""
from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from dataclasses import dataclass

DAVENPORT_MASK = 1 << 1  # FreeSearch.forbidden for a Davenport search

# (layer, module, attribute) of every function whose spans are recorded
FUNCTIONS = (
    ("arith.factorize", "ebmod.arith", "factorize"),
    ("arith.idempotents", "ebmod.arith", "idempotents"),
    ("arith.lift_to_unit", "ebmod.arith", "lift_to_unit"),
    ("unitgroup.units", "ebmod.unitgroup", "units"),
    ("unitgroup.shape", "ebmod.unitgroup", "unit_group_shape"),
    ("sequences.product_set", "ebmod.sequences", "product_set"),
    ("sequences.idem_free", "ebmod.sequences", "is_idempotent_product_free"),
    ("sequences.product_one", "ebmod.sequences", "find_product_one_subsequence"),
    ("davenport.davenport_exact", "ebmod.davenport", "davenport_exact"),
    ("ebconstant.eb_exact", "ebmod.ebconstant", "eb_exact"),
    ("ebconstant.construct_extremal", "ebmod.ebconstant", "construct_extremal"),
    ("ebconstant.extract_pp", "ebmod.ebconstant", "extract_witness_prime_power"),
    ("ebconstant.extract_sf", "ebmod.ebconstant", "extract_witness_squarefree"),
    ("cli.main", "ebmod.cli", "main"),
)
METHODS = (
    ("search.init", "__init__"),
    ("search.exists_free", "exists_free"),
    ("search.witness", "witness"),
)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _theorem_class(n: int) -> bool:
    """True when n is a prime power or squarefree, by trial division
    (the benchmark's own code, so no ebmod call is traced)."""
    exps = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            exps.append(k)
        p += 1
    if m > 1:
        exps.append(1)
    return len(exps) == 1 or all(k == 1 for k in exps)


class Tracer:
    """Spans and exact counters for the calls made after install(),
    timed with `clock`."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: dict[str, Span] = {}
        self.sites: dict[str, int] = {}
        self._child: list[float] = []  # child time of each open span
        self.states_eb = 0
        self.states_dav = 0
        self.dav_engines = 0
        self.refute_s = 0.0
        self.theorem_search_s = 0.0
        self.rss_start_kib = 0

    def _wrap(self, name, fn, after=None, before=None):
        """fn with a span; after(args, result, seconds, mark) runs on
        exit, with mark = before(args) taken on entry."""
        span = self.spans.setdefault(name, Span())
        child = self._child
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = before(args) if before else None
            child.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - inner
                if after:
                    after(args, result, dt, mark)

        return wrapper

    @staticmethod
    def _states_now(args):
        return args[0].states_used

    def _search_states(self, args, result, dt, mark):
        engine = args[0]
        if engine.forbidden == DAVENPORT_MASK:
            self.states_dav += engine.states_used - mark
        else:
            self.states_eb += engine.states_used - mark

    def _probe(self, args, result, dt, mark):
        self._search_states(args, result, dt, mark)
        if result is False:
            self.refute_s += dt

    def _engine_built(self, args, result, dt, mark):
        if args[0].forbidden == DAVENPORT_MASK:
            self.dav_engines += 1

    def _eb_call(self, args, result, dt, mark):
        if _theorem_class(args[0]):
            self.theorem_search_s += dt

    def install(self) -> None:
        """Replace every binding of the traced functions in the loaded
        ebmod modules, and the FreeSearch methods on the class."""
        from ebmod.search import FreeSearch

        for _, modname, _ in FUNCTIONS:
            importlib.import_module(modname)
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "ebmod" or name.startswith("ebmod.")
        ]
        observers = {"ebconstant.eb_exact": self._eb_call}
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original, observers.get(name))
            sites = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        sites += 1
            self.sites[name] = sites
        observers = {
            "search.init": (self._engine_built, None),
            "search.exists_free": (self._probe, self._states_now),
            "search.witness": (self._search_states, self._states_now),
        }
        for name, attr in METHODS:
            after, before = observers[name]
            setattr(
                FreeSearch, attr, self._wrap(name, getattr(FreeSearch, attr), after, before)
            )
            self.sites[name] = 1
        self.rss_start_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for one traced pass whose timed part took
        wall_s seconds."""
        s = self.spans
        states = self.states_eb + self.states_dav
        search_s = s["search.exists_free"].total_s + s["search.witness"].total_s
        rss_growth = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self.rss_start_kib
        ) * 1024
        dav_calls = s["davenport.davenport_exact"].calls
        return {
            "search.states_eb": self.states_eb,
            "search.states_dav": self.states_dav,
            "search.probes": s["search.exists_free"].calls,
            "search.refute_s": self.refute_s,
            "search.states_per_s": states / search_s if search_s else 0.0,
            "search.engines": s["search.init"].calls,
            "search.init_s": s["search.init"].total_s,
            "search.witness_s": s["search.witness"].total_s,
            "search.bytes_per_state": rss_growth / states if states else 0.0,
            "davenport.calls": dav_calls,
            "davenport.searches": self.dav_engines,
            "davenport.cache_hit_frac": (
                1 - self.dav_engines / dav_calls if dav_calls else 0.0
            ),
            "davenport.self_s": s["davenport.davenport_exact"].self_s,
            "ebconstant.eb_exact_calls": s["ebconstant.eb_exact"].calls,
            "ebconstant.eb_exact_self_s": s["ebconstant.eb_exact"].self_s,
            "ebconstant.theorem_search_s": self.theorem_search_s,
            "ebconstant.theorem_search_frac": (
                self.theorem_search_s / wall_s if wall_s else 0.0
            ),
            "ebconstant.construct_extremal_s": s[
                "ebconstant.construct_extremal"
            ].total_s,
            "ebconstant.extract_s": (
                s["ebconstant.extract_pp"].total_s + s["ebconstant.extract_sf"].total_s
            ),
            "sequences.product_set_calls": s["sequences.product_set"].calls,
            "sequences.product_set_s": s["sequences.product_set"].total_s,
            "sequences.idem_free_calls": s["sequences.idem_free"].calls,
            "sequences.idem_free_s": s["sequences.idem_free"].total_s,
            "sequences.product_one_s": s["sequences.product_one"].total_s,
            "arith.factorize_calls": s["arith.factorize"].calls,
            "arith.factorize_s": s["arith.factorize"].total_s,
            "arith.idempotents_calls": s["arith.idempotents"].calls,
            "arith.idempotents_s": s["arith.idempotents"].total_s,
            "arith.lift_to_unit_calls": s["arith.lift_to_unit"].calls,
            "arith.lift_to_unit_s": s["arith.lift_to_unit"].total_s,
            "unitgroup.units_s": s["unitgroup.units"].total_s,
            "unitgroup.shape_s": s["unitgroup.shape"].total_s,
            "cli.self_s": s["cli.main"].self_s,
        }
