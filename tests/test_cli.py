from __future__ import annotations

import concurrent.futures
import csv
import io
import json
from dataclasses import replace

import pytest

import ebmod.cli as cli
import ebmod.ebconstant as ebc_mod
from ebmod.cli import main
from ebmod.ebconstant import STATUS_EXACT, conjecture_scan, eb_exact, verify_theorem
from ebmod.search import SearchBudget
from ebmod.sequences import ResidueSequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_idempotents_json(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "12", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "idempotents"
    assert rec["results"]["members"] == [0, 1, 4, 9]
    assert rec["results"]["omega"] == 2
    assert "timing_seconds" in rec


def test_idempotents_table(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "12")
    assert code == 0
    assert "0,1,4,9" in out


def test_davenport_with_witness(capsys):
    code, out, _ = run_cli(capsys, "davenport", "12", "--witness")
    assert code == 0
    assert "3" in out and "5,7" in out


def test_davenport_json_check(capsys):
    code, out, _ = run_cli(capsys, "davenport", "5", "--format", "json", "--check")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["value"] == 4
    assert rec["results"]["witness"] == [2, 2, 2]
    assert rec["results"]["check"] == "ok"
    assert rec["budget"]["max_states"] == 1 << 26


def test_eb_witness_json(capsys):
    code, out, _ = run_cli(capsys, "eb", "4", "--witness", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["eb_value"] == 3
    assert rec["results"]["witness"] == [2, 3]
    assert rec["results"]["status"] == "exact"


def test_construct(capsys):
    code, out, _ = run_cli(capsys, "construct", "12", "--format", "json", "--check")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["witness"] == [2, 5, 7]
    assert rec["results"]["lower_bound"] == 4
    assert rec["results"]["check"] == "ok"


def test_extract_prime_power(capsys):
    code, out, _ = run_cli(
        capsys, "extract", "4", "--seq", "2,2,3", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["witness"] == [2, 2]
    assert rec["results"]["product"] == 0
    assert rec["results"]["mode"] == "prime-power"


def test_extract_squarefree(capsys):
    code, out, _ = run_cli(
        capsys, "extract", "6", "--seq", "2,5", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["witness"] == [2, 5]
    assert rec["results"]["mode"] == "squarefree"


def test_extract_rejects_other_moduli(capsys):
    code, _, err = run_cli(capsys, "extract", "12", "--seq", "5,7,2")
    assert code == 2
    assert "error" in err and "neither a prime power nor squarefree" in err


def test_extract_rejects_out_of_range_terms(capsys):
    code, _, err = run_cli(capsys, "extract", "4", "--seq", "5,2,3")
    assert code == 2
    code, out, _ = run_cli(
        capsys, "extract", "4", "--seq", "5,2,2", "--reduce", "--format", "json"
    )
    assert code == 0


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "9", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["equality_class"] == "prime-power"
    assert rec["results"]["equality_holds"] is True
    assert rec["results"]["lower_bound_certified"] is True
    assert rec["results"]["extension_spot_checks"] > 0


@pytest.mark.parametrize("n, checked", [(30, 22), (36, 32)])
def test_verify_checks_every_one_term_extension(capsys, n, checked):
    # every non-idempotent residue: n - 2^omega of them
    code, out, _ = run_cli(capsys, "verify", str(n), "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["extension_spot_checks"] == checked


def test_verify_rejects_a_witness_that_is_not_maximal(capsys, monkeypatch):
    real = cli.verify_theorem
    monkeypatch.setattr(
        cli, "verify_theorem", lambda *a: replace(real(*a), witness=(2, 3))
    )
    code, _, err = run_cli(capsys, "verify", "12")
    assert code == 4
    assert "witness for n=12 extends by 5 and stays free" in err


def test_verify_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "12", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--seed" not in capsys.readouterr().out


def test_idempotents_at_max_n(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "1000000000000")
    assert code == 0
    rows = dict(line.split(None, 1) for line in out.splitlines())
    assert rows["count"] == "4"
    assert rows["members"] == "0,1,81787109376,918212890625"


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "idempotents", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "flags",
    (["--max-seconds", "nan"], ["--max-seconds", "-1"], ["--max-states", "-1"]),
)
def test_a_budget_that_bounds_nothing_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "eb", "12", *flags)
    assert (code, out) == (2, "")
    assert "error" in err and flags[0][2:].replace("-", "_") in err


def test_undecided_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "davenport", "168", "--max-states", "500")
    assert code == 0  # informative, not strict
    assert "undecided" in out
    code, out, _ = run_cli(
        capsys, "davenport", "168", "--max-states", "500", "--strict"
    )
    assert code == 3


def test_a_proved_class_row_with_d_undecided_exits_3_under_strict(capsys):
    # 195 is squarefree, but D((Z/195Z)^x) has no theorem and stays open
    code, out, _ = run_cli(capsys, "verify", "195", "--max-states", "500", "--strict")
    assert code == 3 and "davenport undecided" in out


@pytest.mark.parametrize(
    "argv", (["verify", "6"], ["scan", "--from", "6", "--to", "6"])
)
def test_strict_treats_an_undecided_davenport_as_undecided(capsys, monkeypatch, argv):
    # n = 6 is squarefree: with D undecided the I(n) search still decides,
    # but the reported davenport is missing, so --strict exits 3
    monkeypatch.setattr(ebc_mod, "_davenport_or_bounds", lambda m, b: (None, (1, m)))
    rep = verify_theorem(6)
    assert rep.davenport is None and rep.eb_value == 2
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--strict")[0] == 3


def test_scan_json(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "10", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(2, 11))
    assert all(r["status"].startswith("THEOREM_") for r in rows)
    assert all(r["eb_value"] == r["lower_bound"] for r in rows)


def test_scan_ndjson_stream(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "6", "--format", "json", "--stream"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in lines] == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_stream_changes_only_json(capsys, fmt):
    # table and CSV rows print as they complete with or without --stream
    argv = ("scan", "--from", "2", "--to", "12", "--format", fmt)
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--stream")


def test_scan_csv_matches_json(capsys):
    code, json_out, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "12", "--format", "json"
    )
    assert code == 0
    code, csv_out, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "12", "--format", "csv"
    )
    assert code == 0
    json_rows = json.loads(json_out)
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(json_rows) == len(csv_rows)
    for jr, cr in zip(json_rows, csv_rows):
        assert str(jr["n"]) == cr["n"]
        assert str(jr["eb_value"]) == cr["eb_value"]
        assert str(jr["davenport"]) == cr["davenport"]
        assert jr["status"] == cr["status"]
        witness_csv = [int(x) for x in cr["witness"].split(",")] if cr["witness"] else []
        assert (jr["witness"] or []) == witness_csv


def test_scan_table_and_check(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "12", "--check"
    )
    assert code == 0
    assert "CONJECTURE_VERIFIED" in out
    assert "THEOREM_PRIME_POWER" in out


def test_scan_jobs_ordering(capsys):
    code, out1, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "12", "--format", "json"
    )
    code2, out2, _ = run_cli(
        capsys, "scan", "--from", "2", "--to", "12", "--format", "json", "--jobs", "2"
    )
    assert code == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_scan_bad_range(capsys):
    code, _, err = run_cli(capsys, "scan", "--from", "5", "--to", "2")
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_scan_rejects_fewer_than_one_job(capsys, jobs):
    code, out, err = run_cli(capsys, "scan", "--from", "2", "--to", "3", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert "jobs must be >= 1" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_scan_bad_range_prints_no_header(capsys, fmt):
    code, out, err = run_cli(capsys, "scan", "--from", "5", "--to", "2", "--format", fmt)
    assert (code, out) == (2, "")
    assert "bad scan range" in err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps
    in this process, so no worker is ever started."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_scan_starts_no_more_workers_than_rows(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    code, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "4", "--jobs", "8")
    assert code == 0 and out.count("THEOREM_PRIME_POWER") == 3
    assert _RecordingPool.started == [3]
    run_cli(capsys, "scan", "--from", "5", "--to", "5", "--jobs", "8")
    assert _RecordingPool.started == [3]  # one row runs in this process


def test_parse_error_messages(capsys):
    code, _, err = run_cli(capsys, "extract", "6", "--seq", "2,x")
    assert code == 2
    assert "bad sequence term" in err


def test_verify_and_scan_agree_when_the_confirming_search_runs_out(capsys):
    """n = 102 = 2*3*17 is squarefree, so the theorem gives I(102) = D = 17
    even when the I(n) search that would confirm it hits its budget;
    eb, verify and scan all report that value."""
    # the confirming walk takes 1406 states, so 1000 runs out
    budget = SearchBudget(max_states=1000)
    rep = verify_theorem(102, budget)
    assert (rep.eb_value, rep.eb_bounds, rep.equality_holds) == (17, None, True)
    assert rep.note == "search confirmation hit budget; value is theorem-exact"
    assert list(conjecture_scan(102, 102, budget)) == [rep]
    eb = eb_exact(102, budget)
    assert (eb.value, eb.status, eb.bounds) == (rep.eb_value, STATUS_EXACT, None)
    assert eb.constructed
    assert eb.witness.as_tuple() == rep.witness
    code, out, _ = run_cli(
        capsys, "verify", "102", "--max-states", "1000", "--strict", "--format", "json"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["eb_value"], res["eb_bounds"], res["equality_holds"]) == (17, None, True)
    assert res["notes"] == [rep.note]
    code, out, _ = run_cli(
        capsys, "eb", "102", "--max-states", "1000", "--strict", "--format", "json"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["eb_value"], res["status"]) == (17, STATUS_EXACT)
    assert "bounds" not in res and res["witness"] == list(rep.witness)


def _one_term_changed(seq, old: int, new: int) -> ResidueSequence:
    terms = list(seq)
    terms[terms.index(old)] = new
    return ResidueSequence(seq.n, terms)


@pytest.mark.parametrize(
    "argv, target, corrupt, message",
    [
        (
            ["davenport", "12"],
            "davenport_exact",
            lambda r: replace(r, witness=_one_term_changed(r.witness, 7, 5)),
            "not product-one free",
        ),
        (
            ["eb", "12"],
            "eb_exact",
            lambda r: replace(r, witness=_one_term_changed(r.witness, 5, 4)),
            "not idempotent-product free",
        ),
        (
            ["construct", "12"],
            "construct_extremal",
            lambda T: _one_term_changed(T, 7, 9),
            "not idempotent-product free",
        ),
        (
            ["extract", "4", "--seq", "2,2,3"],
            "extract_witness_prime_power",
            lambda W: _one_term_changed(W, 2, 3),
            "not idempotent",
        ),
        (
            ["verify", "12"],
            "verify_theorem",
            lambda rep: replace(rep, witness=(2, 3, 4)),
            "not idempotent-product free",
        ),
        (
            ["scan", "--from", "12", "--to", "12"],
            "conjecture_scan",
            lambda rows: (replace(r, witness=(2, 3, 4)) for r in rows),
            "not idempotent-product free",
        ),
    ],
)
def test_check_rejects_a_witness_with_one_term_changed(
    capsys, monkeypatch, argv, target, corrupt, message
):
    real = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *a, **k: corrupt(real(*a, **k)))
    code, _, err = run_cli(capsys, *argv, "--check")
    assert code == 4
    assert "internal inconsistency" in err and message in err


def _strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which RFC 8259 lacks."""

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    (
        ["idempotents", "12"],
        ["davenport", "12", "--witness", "--max-seconds", "inf"],
        ["eb", "12", "--witness", "--max-seconds", "inf"],
        ["construct", "12", "--max-seconds", "inf"],
        ["extract", "30", "--seq", "0,5,6,10,15", "--max-seconds", "inf"],
        ["verify", "12", "--max-seconds", "inf"],
        ["scan", "--from", "2", "--to", "6", "--max-seconds", "inf"],
        ["scan", "--from", "2", "--to", "6", "--max-seconds", "inf", "--stream"],
    ),
    ids=("idempotents", "davenport", "eb", "construct", "extract", "verify",
         "scan", "scan-stream"),
)
def test_every_json_output_parses_strictly(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    if "--stream" in argv:
        records = [_strict_json(line) for line in out.strip().splitlines()]
    else:
        records = _strict_json(out)
    if isinstance(records, dict) and "budget" in records:
        assert records["budget"]["max_seconds"] is None  # as with no cap
    assert records


@pytest.mark.parametrize(
    "argv",
    (["construct", "195"], ["extract", "195", "--seq", "2,4,7"]),
    ids=("construct", "extract"),
)
def test_an_undecided_davenport_constant_prints_its_record(capsys, argv):
    """D((Z/195Z)^x) = D(C2+C4+C12) has no theorem here and stays
    undecided at 500 states, so construct and extract, which need D,
    print n, the status and D's bracket, and exit 3 only under --strict."""
    budget = ["--max-states", "500"]
    code, out, err = run_cli(capsys, *argv, *budget, "--format", "json")
    assert code == 0 and "undecided at budget" in err
    rec = _strict_json(out)
    assert rec["command"] == argv[0]
    assert rec["results"] == {
        "n": 195,
        "status": "undecided-at-budget",
        "davenport_bounds": [16, 96],
    }
    code, out, _ = run_cli(capsys, *argv, *budget, "--strict", "--format", "json")
    assert code == 3 and _strict_json(out)["results"] == rec["results"]
    code, out, _ = run_cli(capsys, *argv, *budget, "--strict")
    assert code == 3
    keys = [line.split()[0] for line in out.splitlines()]
    assert keys == ["n", "status", "davenport_bounds", "time"]
    assert "undecided-at-budget" in out and "16,96" in out
