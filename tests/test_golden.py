"""Byte-for-byte CLI outputs against files under tests/golden/.

Timing is the only run-dependent output, so the `"timing_seconds"` JSON
line and the `time` line of a table are dropped before comparing.  Runs
at a reduced state budget pop the cached Davenport value first, so the
budget really binds.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""
from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import ebmod.davenport as dav_mod
from ebmod.cli import main

GOLDEN = Path(__file__).parent / "golden"
_TIMING = re.compile(r'^(\s*"timing_seconds": .*|time\s+[0-9.]+s)$')

CASES = {
    "scan-2-24.table": ["scan", "--from", "2", "--to", "24"],
    "scan-2-24.json": ["scan", "--from", "2", "--to", "24", "--format", "json"],
    "scan-2-24.csv": ["scan", "--from", "2", "--to", "24", "--format", "csv"],
    "scan-2-24.ndjson": [
        "scan", "--from", "2", "--to", "24", "--format", "json", "--stream"
    ],
}
for _n in (9, 12, 30, 36):
    CASES[f"verify-{_n}.table"] = ["verify", str(_n)]
    CASES[f"verify-{_n}.json"] = ["verify", str(_n), "--format", "json"]
for _cmd in ("davenport", "eb"):
    for _n in (5, 12):
        CASES[f"{_cmd}-{_n}.table"] = [_cmd, str(_n), "--check"]
        CASES[f"{_cmd}-{_n}.json"] = [_cmd, str(_n), "--format", "json", "--check"]
        CASES[f"{_cmd}-{_n}-witness.table"] = [_cmd, str(_n), "--witness"]
# 91 decides D by theorem at 500 states and 168, outside the theorems'
# classes, stays undecided there
for _n in (91, 168):
    _tiny = ["--max-states", "500"]
    CASES[f"scan-{_n}-500.json"] = [
        "scan", "--from", str(_n), "--to", str(_n), *_tiny, "--format", "json"
    ]
    CASES[f"verify-{_n}-500.table"] = ["verify", str(_n), *_tiny]
    for _cmd in ("verify", "davenport", "eb"):
        CASES[f"{_cmd}-{_n}-500.json"] = [_cmd, str(_n), *_tiny, "--format", "json"]
for _name, _argv in (
    ("construct-12", ["construct", "12", "--check"]),
    ("idempotents-12", ["idempotents", "12"]),
    ("extract-4", ["extract", "4", "--seq", "2,2,3", "--check"]),
    ("extract-6", ["extract", "6", "--seq", "2,5", "--check"]),
):
    CASES[f"{_name}.table"] = _argv
    CASES[f"{_name}.json"] = [*_argv, "--format", "json"]


def render(argv: list[str]) -> str:
    """Exit code and stdout of one in-process CLI run, timing lines dropped."""
    if "--max-states" in argv:
        for a in argv:
            if a.isdigit():
                dav_mod._cache.pop(int(a), None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    lines = buf.getvalue().splitlines(keepends=True)
    kept = "".join(line for line in lines if not _TIMING.match(line.rstrip("\r\n")))
    return f"exit {code}\n{kept}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / name).read_bytes().decode()
    assert render(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(render(argv).encode())
        print(name, file=sys.stderr)
