"""Check that a revision and the working tree give the same job outputs.

    python3 tools/same_outputs.py REV [--seeds 1-3,11]

Checks REV out with ``git worktree`` into a temporary directory, removed
when done.  For each benchmark workload at each seed (1-3 unless
``--seeds`` lists others, as numbers and ranges) it runs one pass of
the jobs in REV and one in the working tree, each in its own subprocess,
through that checkout's ``perfbench/run.py`` (``set_up`` and
``run_pass``, read-only, with no bytecode written).  Every output is
fingerprinted: verdict words and other plain values as they are, traces
as (position, rule id) steps with each closure's limit and certificate
fields, terms by printed form and raw canonical id, ω runs with their
configurations and statuses, law reports without ``elapsed``, and CLI
calls by exit code and text.  A job that raised is fingerprinted by its
error.

Prints each job whose fingerprint differs and exits 0 only when none
does; 1 when some differ, 2 when REV cannot be checked out or the
arguments are malformed.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search", "srs-bisim", "trace-close", "omega-member")

# Run in a subprocess with a checkout's root, a workload, a seed and
# "small" or "full": prints the fingerprint of each job's output as JSON.
CHILD = """
import json, sys, tempfile
from pathlib import Path
root, name, seed, size = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path[:0] = [str(root / "src"), str(root / "perfbench"), sys.argv[5]]
import run, same_outputs
with tempfile.TemporaryDirectory() as work:
    _, jobs = run.set_up(name, seed, Path(work), size == "small")
    _, _, outs = run.run_pass(jobs)
    print(json.dumps([[job.name, same_outputs.fingerprint(out, work)]
                      for job, out in zip(jobs, outs)]))
"""


def fingerprint(obj, work: str):
    """A JSON value that determines what irw returned: terms by printed
    form and canonical id, steps by position and rule id, records by
    their public slots, ``elapsed`` left out, and the scratch path
    ``work`` replaced in text."""
    from irw.rewrite import Step
    from irw.terms import Term, canon_key, print_term
    if isinstance(obj, str):
        return obj.replace(work, "<work>")
    if obj is None or isinstance(obj, (bool, int, float)):
        return obj
    if isinstance(obj, Term):
        return ["term", print_term(obj), canon_key(obj)]
    if isinstance(obj, Step):
        return ["step", list(obj.position), obj.rule_id]
    if isinstance(obj, (list, tuple)):
        return [fingerprint(x, work) for x in obj]
    if isinstance(obj, dict):
        return [[fingerprint(k, work), fingerprint(v, work)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    slots = [s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ())
             if not s.startswith("_") and s != "elapsed"]
    return [type(obj).__name__, {s: fingerprint(getattr(obj, s), work)
                                 for s in slots}]


def job_fingerprints(root: Path, name: str, seed: int,
                     small: bool = False) -> list:
    """[job name, fingerprint] for each job of one pass of a workload, run
    in a fresh subprocess on the checkout at root."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(root), name, str(seed),
         "small" if small else "full", str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def differences(old: list, new: list) -> list[str]:
    """The names of the jobs, in run order, whose fingerprints differ or
    that only one side ran."""
    return [(a or b)[0] for a, b in zip_longest(old, new) if a != b]


def parse_seeds(text: str) -> tuple[int, ...]:
    """The seeds of a comma-separated list of numbers and ranges, such as
    ``1-3,11``, in the order given.  Raises ValueError on anything else,
    on a range that runs backwards and on a repeated seed."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if not lo.isdigit() or (sep and not hi.isdigit()):
            raise ValueError(f"not a seed or range of seeds: {part!r}")
        first, last = int(lo), int(hi) if sep else int(lo)
        if last < first:
            raise ValueError(f"range runs backwards: {part!r}")
        seeds += range(first, last + 1)
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"a seed is repeated: {text!r}")
    return tuple(seeds)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/same_outputs.py")
    parser.add_argument("rev")
    parser.add_argument("--seeds", type=parse_seeds, default="1-3",
                        help="seeds as numbers and ranges (default 1-3)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code
    with tempfile.TemporaryDirectory() as tmp:
        rev = Path(tmp) / "rev"
        add = subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                              "--detach", str(rev), args.rev],
                             capture_output=True, text=True)
        if add.returncode:
            print(add.stderr.strip(), file=sys.stderr)
            return 2
        try:
            compared, differ = 0, 0
            for name in WORKLOADS:
                for seed in args.seeds:
                    old = job_fingerprints(rev, name, seed)
                    new = job_fingerprints(ROOT, name, seed)
                    compared += len(new)
                    for job in differences(old, new):
                        differ += 1
                        print(f"differs: {name} seed {seed}: {job}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(rev)], capture_output=True)
    print(f"{compared} jobs compared with {args.rev}, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
