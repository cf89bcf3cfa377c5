"""Fast smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload, and the traced run, at the tiny sizes in this process
and asserts that each result line carries exactly the metrics and units
BENCHMARK.json names, that every job that returned had its output checked,
that only known-defect jobs failed, and that src/ is byte-identical
afterwards.  Then it checks that the benchmark exits non-zero, printing no
result, in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(run.SRC.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(run.SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def counted(builders, tally):
    """Wrap each workload's jobs so that runs, raises and checks are counted."""
    def wrap_job(job):
        run_fn, check_fn = job.run, job.check

        def run_counted():
            tally["ran"] += 1
            try:
                return run_fn()
            except Exception:
                tally["raised"] += 1
                raise

        def check_counted(out):
            tally["checked"] += 1
            return check_fn(out)
        job.run, job.check = run_counted, check_counted
        return job

    def wrap_builder(build):
        return lambda *a: [wrap_job(j) for j in build(*a)]
    return {name: wrap_builder(b) for name, b in builders.items()}


def run_small(argv) -> dict:
    tally = {"ran": 0, "raised": 0, "checked": 0}
    original = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update(counted(original, tally))
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = run.main(argv, small=True)
    finally:
        workloads.WORKLOADS.update(original)
    assert rc == 0, rc
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, buf.getvalue()
    # Every attempted job either failed or had its output checked.
    assert tally["checked"] + result["failed"] >= result["attempted"], (tally, result)
    return result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    before = src_digest()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        res = run_small(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                         "--trace", "0"])
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == e2e, (w["name"], got)
        print(f"ok {w['name']}: {res['attempted']} attempted, {res['failed']} failed")
    res = run_small(["--workload", "search", "--seed", "1", "--seconds", "1",
                     "--trace", "1"])
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == layer, set(got) ^ set(layer)
    assert res["failed"] == 2, res["failed"]  # the two known-defect jobs
    print(f"ok traced: {len(got)} per-layer metrics")
    assert src_digest() == before, "src/ changed"

    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        p = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "search",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout)
    print("ok without src/: exit", p.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
