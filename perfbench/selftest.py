"""Self-test of the benchmark: wrong golden values must fail the run.

Usage, from the root of a checkout (about 20 s):

    python3 perfbench/selftest.py

Works on copies under perfbench/.selftest/, removed at the end:
an unmodified copy must pass; a copy whose golden D(49), or one row
of whose scan golden, is wrong must exit nonzero with "correct": false;
a copy without ebmod's sources must exit nonzero without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = HERE / ".selftest"
IGNORE = shutil.ignore_patterns("__pycache__", ".selftest")


def make_copy(name: str, with_src: bool = True) -> Path:
    root = TMP / name
    shutil.copytree(HERE, root / "perfbench", ignore=IGNORE)
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    return root


def run(root: Path, workload: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        result = None
    return proc.returncode, result


def main() -> int:
    shutil.rmtree(TMP, ignore_errors=True)
    failures = []
    try:
        rc, res = run(make_copy("control"), "extract-threshold")
        if rc != 0 or res is None or res["correct"] is not True:
            failures.append(f"unmodified copy: exit {rc}, result {res}")

        root = make_copy("wrong-pool")
        values = root / "perfbench" / "golden" / "values.json"
        golden = json.loads(values.read_text())
        golden["davenport_pool"]["49"] += 1
        values.write_text(json.dumps(golden))
        rc, res = run(root, "extract-threshold")
        if rc == 0 or res is None or res["correct"] is not False or not res["failed"]:
            failures.append(f"wrong D(49): exit {rc}, result {res}")

        root = make_copy("wrong-scan")
        scan = root / "perfbench" / "golden" / "scan-2-40.json"
        text = scan.read_text()
        scan.write_text(text.replace('"davenport": 2,', '"davenport": 3,', 1))
        rc, res = run(root, "scan-2-40")
        if rc == 0 or res is None or res["correct"] is not False or not res["failed"]:
            failures.append(f"wrong scan row: exit {rc}, result {res}")

        rc, res = run(make_copy("no-src", with_src=False), "scan-2-40")
        if rc == 0 or res is not None:
            failures.append(f"no sources: exit {rc}, result {res}")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
