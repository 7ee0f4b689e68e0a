"""Command-line interface.

Subcommands
    idempotents  enumerate idempotent residues mod n
    davenport    exact Davenport constant of (Z/nZ)^x with witness
    eb           exact idempotent-product constant I(n) with witness
    construct    the extremal free sequence certifying the lower bound
    extract      constructive idempotent-product witness inside a given
                 threshold-length sequence (prime power or squarefree n)
    verify       all provable consistency checks for one n
    scan         equality table over a range of moduli

Formats: human table (default) and JSON everywhere; scan adds CSV and
NDJSON streaming.  Exit codes: 0 success, 2 domain error, 3 undecided
at budget under --strict, 4 internal inconsistency (a proved fact
failed to verify — always a bug, never a finding).

The only environment variable consulted is NO_COLOR.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from math import isfinite

from . import certify
from .arith import factorize, idempotents
from .davenport import davenport_exact, davenport_formula_bound
from .ebconstant import (
    SCAN_UNDECIDED,
    STATUS_EXACT,
    STATUS_UNDECIDED,
    _equality_class,
    conjecture_scan,
    construct_extremal,
    eb_exact,
    extract_witness_prime_power,
    extract_witness_squarefree,
    verify_theorem,
)
from .errors import DomainError, InconsistencyError, UndecidedError
from .search import SearchBudget
from .sequences import ResidueSequence, format_sequence, parse_sequence_literal, pi
from .unitgroup import totient, unit_group_shape

_GREEN, _YELLOW, _RED, _RESET = "\x1b[32m", "\x1b[33m", "\x1b[31m", "\x1b[0m"


def _use_color() -> bool:
    return sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _paint(status: str) -> str:
    if not _use_color():
        return status
    color = _YELLOW if status == SCAN_UNDECIDED else (
        _RED if status == "COUNTEREXAMPLE" else _GREEN
    )
    return f"{color}{status}{_RESET}"


def _budget(args) -> SearchBudget:
    return SearchBudget(max_states=args.max_states, max_seconds=args.max_seconds)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v) if v else "(empty)"
    return str(v)


def _roundtrip_check(witness, n: int, check) -> str:
    """Serialize the witness (a sequence or a tuple of terms), parse it
    back and run its certify check on the parsed copy; used by --check."""
    T = parse_sequence_literal(format_sequence(witness), n)
    if T.as_tuple() != tuple(witness):
        raise InconsistencyError("witness does not round-trip")
    check(T)
    return "ok"


def _finish(args, results: dict, witness=None, check=None, undecided=False) -> int:
    """How every command but scan ends: the --check round trip of its
    witness, if any; the record, timed from the args.t0 main sets, as an
    aligned key/value table or a JSON object; and the exit code, 3 for an
    undecided result under --strict."""
    if args.check and witness is not None:
        results["check"] = _roundtrip_check(witness, args.n, check)
    record = {
        "command": args.cmd,
        "inputs": {"n": args.n},
        "results": results,
        "timing_seconds": round(time.perf_counter() - args.t0, 6),
    }
    if hasattr(args, "max_states"):
        seconds = args.max_seconds
        record["budget"] = {
            "max_states": args.max_states,
            # JSON has no Infinity: an infinite cap, like none, is null
            "max_seconds": seconds if isfinite(seconds or 0) else None,
        }
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        width = max((len(k) for k in results), default=0)
        for k, v in results.items():
            print(f"{k:<{width}}  {_fmt(v)}")
        print(f"{'time':<{width}}  {record['timing_seconds']:.3f}s")
    return 3 if undecided and args.strict else 0


def _undecided(rep) -> bool:
    """The --strict rule for verify and scan: a report is undecided
    unless both of its constants are exact."""
    return rep.davenport is None or rep.eb_value is None


def cmd_idempotents(args) -> int:
    f = factorize(args.n)
    E = idempotents(args.n)
    results = {
        "n": args.n,
        "factorization": f.summary(),
        "omega": f.omega,
        "count": len(E),
        "members": list(E),
    }
    return _finish(args, results)


def cmd_davenport(args) -> int:
    f = factorize(args.n)
    shape = unit_group_shape(f)
    base = {
        "n": args.n,
        "phi": totient(f),
        "group": list(shape),
        "formula_bound": davenport_formula_bound(shape),
    }
    try:
        res = davenport_exact(args.n, _budget(args))
    except UndecidedError as exc:
        base.update(
            {"value": None, "status": STATUS_UNDECIDED, "bounds": list(exc.bounds)}
        )
        return _finish(args, base, undecided=True)
    base.update({"value": res.value, "method": res.method, "status": STATUS_EXACT})
    if args.witness or args.format == "json":
        base["witness"] = list(res.witness)
    return _finish(
        args, base, res.witness, lambda T: certify.product_one_free(T, res.value)
    )


def cmd_eb(args) -> int:
    f = factorize(args.n)
    res = eb_exact(args.n, _budget(args))
    results = {
        "n": args.n,
        "factorization": f.summary(),
        "omega": f.omega,
        "big_omega": f.big_omega,
        "davenport": res.davenport,
        "lower_bound": res.lower_bound,
        "eb_value": res.value,
        "status": res.status,
    }
    if res.bounds is not None:
        results["bounds"] = list(res.bounds)
    if res.witness is not None and (args.witness or args.format == "json"):
        results["witness"] = list(res.witness)
    return _finish(
        args,
        results,
        res.witness,
        lambda T: certify.idempotent_product_free(T, res.value),
        undecided=res.status == STATUS_UNDECIDED,
    )


def cmd_construct(args) -> int:
    f = factorize(args.n)
    T = construct_extremal(args.n, _budget(args))
    dav = davenport_exact(args.n, _budget(args))
    results = {
        "n": args.n,
        "factorization": f.summary(),
        "davenport": dav.value,
        "length": len(T),
        "lower_bound": len(T) + 1,
        "witness": list(T),
        "free": True,  # construct_extremal verifies before returning
    }
    return _finish(args, results, T, certify.idempotent_product_free)


def cmd_extract(args) -> int:
    mode = _equality_class(factorize(args.n))
    T = parse_sequence_literal(args.seq, args.n, reduce=args.reduce)
    if mode == "none":
        raise DomainError(
            f"{args.n} is neither a prime power nor squarefree; "
            "no constructive extractor applies"
        )
    if mode == "prime-power":
        W = extract_witness_prime_power(T, args.n, _budget(args))
    else:
        W = extract_witness_squarefree(T, args.n, _budget(args))
    results = {
        "n": args.n,
        "mode": mode,
        "input_length": len(T),
        "witness": list(W),
        "product": pi(W),
        "idempotent": True,  # extractor verifies before returning
    }
    return _finish(args, results, W, certify.idempotent_product)


_VERIFY_FIELDS = (
    "n",
    "factorization",
    "omega",
    "big_omega",
    "davenport",
    "davenport_bounds",
    "lower_bound",
    "lower_bound_certified",
    "eb_value",
    "eb_bounds",
    "equality_class",
    "equality_holds",
    "extension_spot_checks",
    "witness",
    "notes",
)


def _fields(rep, keys, **extra) -> dict:
    """The named fields of a report, read as attributes (they hold ints,
    strings and tuples, none of which needs a copy), and the extras."""
    return {k: extra[k] if k in extra else getattr(rep, k) for k in keys}


def cmd_verify(args) -> int:
    rep = verify_theorem(args.n, _budget(args))
    checked = 0
    if rep.eb_value is not None and rep.witness is not None:
        # a maximum witness: every one-term extension must break freeness
        T = ResidueSequence(rep.n, rep.witness)
        checked = certify.no_free_extension(T)
    results = _fields(
        rep,
        _VERIFY_FIELDS,
        extension_spot_checks=checked,
        notes=[rep.note] if rep.note else [],
    )
    return _finish(
        args,
        results,
        rep.witness,
        certify.idempotent_product_free,
        undecided=_undecided(rep),
    )


# (TheoremReport field, table header, table width) of each scan column
_SCAN_COLUMNS = (
    ("n", "n", 4),
    ("factorization", "factors", 14),
    ("omega", "omega", 5),
    ("big_omega", "Omega", 5),
    ("davenport", "davenport", 9),
    ("davenport_bounds", "dav_bounds", 12),
    ("lower_bound", "lower_bnd", 11),
    ("eb_value", "eb_value", 8),
    ("eb_bounds", "eb_bounds", 10),
    ("status", "status", 22),
    ("witness", "witness", 28),
    ("note", "note", 0),
)
_SCAN_FIELDS = [field for field, _, _ in _SCAN_COLUMNS]


def _cell(key: str, v) -> str:
    """CSV/table cell: bounds as lo..hi, witness comma-joined; a missing
    value is empty for bounds and witness, "-" elsewhere."""
    if v is None:
        return "" if key.endswith("_bounds") or key == "witness" else "-"
    if key.endswith("_bounds"):
        return f"{v[0]}..{v[1]}"
    return ",".join(map(str, v)) if key == "witness" else str(v)


def cmd_scan(args) -> int:
    rows = conjecture_scan(args.n_lo, args.n_hi, _budget(args), jobs=args.jobs)
    undecided = False

    def records():
        nonlocal undecided
        for r in rows:
            if args.check and r.witness is not None:
                _roundtrip_check(r.witness, r.n, certify.idempotent_product_free)
            undecided = undecided or _undecided(r)
            yield _fields(r, _SCAN_FIELDS)

    if args.format == "json" and not args.stream:
        print(json.dumps(list(records()), indent=2))
    elif args.format == "json":  # NDJSON
        for d in records():
            print(json.dumps(d), flush=True)
    elif args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=_SCAN_FIELDS)
        writer.writeheader()
        for d in records():
            writer.writerow({k: _cell(k, v) for k, v in d.items()})
            sys.stdout.flush()
    else:
        print("  ".join(h.ljust(w) for _, h, w in _SCAN_COLUMNS).rstrip())
        for d in records():
            padded = []
            for k, _, w in _SCAN_COLUMNS:
                c = _cell(k, d[k])
                shown = _paint(c) if k == "status" else c
                padded.append(shown + " " * max(0, w - len(c)))
            print("  ".join(padded).rstrip(), flush=True)
    return 3 if undecided and args.strict else 0


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    states = SearchBudget().max_states  # a power of two
    p.add_argument(
        "--max-states",
        type=int,
        default=states,
        help="memo-table state cap per exact search "
        f"(default: 2^{states.bit_length() - 1})",
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock cap per exact search; an I(n) search gets what "
        "its Davenport search left (default: none)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when a result is undecided at budget",
    )


def _add_common_flags(p: argparse.ArgumentParser, formats=("table", "json")) -> None:
    p.add_argument("--format", choices=formats, default="table")
    p.add_argument(
        "--check",
        action="store_true",
        help="re-parse and re-verify every emitted witness",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ebmod",
        description=(
            "Exact modular idempotent-product constants: I(n), the "
            "Davenport constant of (Z/nZ)^x, extremal witnesses, "
            "constructive extractors, and an equality scanner."
        ),
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def per_n(name: str, help_text: str, func, budget: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int)
        _add_common_flags(p)
        if budget:
            _add_budget_flags(p)
        p.set_defaults(func=func)
        return p

    per_n("idempotents", "idempotent residues mod n", cmd_idempotents, budget=False)
    for name, help_text, func in (
        ("davenport", "Davenport constant of (Z/nZ)^x", cmd_davenport),
        ("eb", "idempotent-product constant I(n)", cmd_eb),
    ):
        p = per_n(name, help_text, func)
        p.add_argument("--witness", action="store_true", help="print the free sequence")
    per_n("construct", "extremal free sequence certifying the lower bound", cmd_construct)
    p = per_n(
        "extract",
        "constructive idempotent-product witness in a given sequence",
        cmd_extract,
    )
    p.add_argument(
        "--seq",
        required=True,
        help='comma-separated residue sequence, e.g. "2,2,3"',
    )
    p.add_argument(
        "--reduce",
        action="store_true",
        help="reduce out-of-range terms mod n instead of rejecting them",
    )
    per_n("verify", "all provable consistency checks for n", cmd_verify)

    p = sub.add_parser("scan", help="equality table over a range of moduli")
    p.add_argument("--from", dest="n_lo", type=int, required=True)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--stream",
        action="store_true",
        help="JSON becomes NDJSON (rows always print as they complete)",
    )
    _add_common_flags(p, formats=("table", "json", "csv"))
    _add_budget_flags(p)
    p.set_defaults(func=cmd_scan)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.t0 = time.perf_counter()
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndecidedError as exc:
        # only davenport_exact raises it, through construct and extract
        print(f"undecided at budget: {exc}", file=sys.stderr)
        results = {
            "n": args.n,
            "status": STATUS_UNDECIDED,
            "davenport_bounds": list(exc.bounds),
        }
        return _finish(args, results, undecided=True)
    except InconsistencyError as exc:
        print(f"internal inconsistency (bug): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
