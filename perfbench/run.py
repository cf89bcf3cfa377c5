"""The irw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``): search, srs-bisim, trace-close,
omega-member.  Each is a fixed job list built from the seed; one client
runs the jobs one after another in this process (a closed loop), and a pass
is the whole list.

``--trace 0`` sets up ``SETUPS`` times, then runs passes while another pass
is expected to end within ``--seconds`` (at least one), and reports the
end-to-end metrics of the named workload:

* ``wall_s``: the time from the first job to the last verdict, set-up
  excluded: the sum over the jobs of each job's median time;
* ``slowest_job_s``: the largest of those medians;
* ``setup_s``: median set-up time (fresh import, fixtures, compiled
  constructions, TRS files for the CLI, seeded instances);
* ``peak_rss_mb``: the process's peak resident memory after the passes.

The three times are given at the reference speed.  The CPU of a shared
machine runs at speeds up to about 1.9x apart, each for a fraction of a
second to minutes, and no counter in the guest shows which: a whole run
can sit in a slow state, so neither the median nor the fastest of a run's
repetitions is the same from run to run.  So a fixed pure-Python reference
loop that calls no irw code (``REF_LOOPS``; each workload's is in
``REF_OF``) runs before each set-up, at the start and end of each pass and
whenever ``REF_EVERY_S`` has passed since it last ran.  Each set-up and
each job's time is scaled by the loop's time at the reference speed over
the median loop time within ``REF_WINDOW_S`` of it (always counting the
runs just before and after it), to a power measured for each workload.
The loop's speed follows the workload's from one state to the next, so a
job's scaled time varies a few percent where its time in seconds varies
by up to 40%.  The unscaled figures are printed too.

``failed_frac`` (failed over attempted jobs) is printed as a line; the
result's ``attempted`` and ``failed`` carry it.  Every output is checked
after the timed passes.  A failure of a job listed as a known defect counts
as failed but leaves ``correct`` true; any other failure makes it false.

``--trace 1`` covers all four workloads, so that every traced run reports
the same per-layer metrics: for each, one untraced and one traced pass
(spans from ``tracer.py``), self time, call counts and ratios per layer,
the ``close_limit`` doubling series and the line count of ``src/``.
Spans are written to ``.perfbench-out/spans-<workload>.bin``.

The last line of standard output is the JSON result.  Exit code 0 on a
result, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave src/ exactly as checked out

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 11
REF_EVERY_S = 0.1
REF_WINDOW_S = 0.25
MODULES = ("terms", "rewrite", "turing", "omega", "encode", "laws", "machines", "cli")
DOUBLING_N = 50

END_TO_END = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of each workload, named "<workload>.<metric>".  Each is
# listed under the workload whose end-to-end numbers it should move.
LAYER_METRICS = {
    "search": [
        "terms.is_finite.calls", "terms.is_finite.self_s",
        "terms.canon_key.calls", "terms.canon_key.self_s",
        "terms.bisim_equal.calls", "terms.bisim_equal.self_s",
        "terms.replace_at.calls", "terms.replace_at.self_s",
        "rewrite.match.calls", "rewrite.match.self_s", "rewrite.match.hit_ratio",
        "rewrite.find_redexes.calls", "rewrite.find_redexes.self_s",
        "rewrite.apply_step.calls", "rewrite.apply_step.self_s",
        "rewrite.is_normal_form.calls",
        "rewrite.close_limit.calls", "rewrite.close_limit.self_s",
        "rewrite.close_limit.closed_ratio", "rewrite.validate_certificate.self_s",
        "rewrite.search.self_s", "rewrite.search.expansions_per_s",
        "rewrite.search.distinct_terms",
        "encode.build.self_s", "machines.load_fixture.self_s",
        "trace_overhead_frac",
    ],
    "srs-bisim": [
        "terms.is_finite.calls", "terms.is_finite.self_s",
        "terms.canon_key.calls", "terms.canon_key.self_s",
        "encode.phi.calls", "encode.phi.self_s",
        "laws.check_srs_bisim.self_s",
        "encode.build.self_s", "machines.load_fixture.self_s",
        "trace_overhead_frac",
    ],
    "trace-close": [
        "terms.bisim_equal.calls", "terms.bisim_equal.self_s",
        "terms.replace_at.calls", "terms.replace_at.self_s",
        "terms.print_term.self_s", "terms.parse_term.self_s",
        "rewrite.close_limit.calls", "rewrite.close_limit.self_s",
        "rewrite.close_limit.closed_ratio", "rewrite.validate_certificate.self_s",
        "rewrite.parse_trs.self_s", "rewrite.render_trace.self_s", "cli.main.self_s",
        "encode.build.self_s", "machines.load_fixture.self_s",
        "trace_overhead_frac",
    ],
    "omega-member": [
        "omega.explore_runs.calls", "omega.explore_runs.self_s",
        "omega.runs.lassoed", "omega.runs.merged", "omega.runs.stuck",
        "omega.runs.cut", "omega.runs.failed",
        "omega.configs", "omega.configs_per_s",
        "machines.load_fixture.self_s",
        "trace_overhead_frac",
    ],
}
GLOBAL_METRICS = {
    **{f"rewrite.close_limit.doubling.n{k * DOUBLING_N}_s": "s" for k in (1, 2, 4)},
    "src_loc": "lines",
}

# The layer each workload is built to stress, as (job name prefix or None
# for the whole pass, span names whose combined self time should be the
# largest share).
CLAIMS = {
    "search": ("nd_pong", ("rewrite.match", "rewrite.find_redexes")),
    "srs-bisim": (None, ("terms.is_finite", "terms.canon_key")),
    "trace-close": (None, ("rewrite.close_limit",)),
    "omega-member": (None, ("omega.explore_runs",)),
}

# Self times that set-up or the output checks spend, not the passes.
_PHASE_OF = {"encode.build": "setup", "machines.load_fixture": "setup",
             "rewrite.validate_certificate": "check"}


def metric_names(trace: bool) -> dict[str, str]:
    """Every metric a run prints, with its unit."""
    if not trace:
        return dict(END_TO_END)
    out = {}
    for wl, names in LAYER_METRICS.items():
        for n in names:
            out[f"{wl}.{n}"] = _unit(n)
    out.update(GLOBAL_METRICS)
    return out


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def fresh_irw():
    """Import irw from src/ as if for the first time."""
    for name in [n for n in sys.modules if n == "irw" or n.startswith("irw.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"irw.{m}") for m in MODULES})


def _pair(acc, k):
    return (acc, k) if k & 1 else (k, acc)


def interp_loop():
    """Calls, small tuples and dict stores and lookups: the interpreter
    work most jobs are made of."""
    d, acc = {}, ()
    for i in range(8000):
        acc = _pair(acc if i & 63 else (), i)
        d[(i & 255, i % 7)] = acc
        d.get((i & 127, 3))


def alloc_loop():
    """Builds 40000 small tuples, about 3 MB, reads them in a scattered
    order and frees them: the allocation and cache misses of a job that
    copies large lists, as omega's run exploration does."""
    xs = [(i, (i, i)) for i in range(20000)]
    k = acc = 0
    for _ in range(10000):
        k = (k * 1103515245 + 12345) & 0x3FFF
        acc += xs[k][1][0]


# Each workload's reference loop, the loop's time at the reference speed
# (about its fastest on a 2-core x86-64 VM under CPython 3.11) and how
# strongly the workload's job times follow the loop's: a job's time is
# taken to grow as the loop's time to that power.
#
# A workload is timed against the loop whose speed follows its own jobs'
# from one machine state to the next.  Over 20 s windows of a few minutes
# of repeats, the standard deviation of a long job's median time was, in
# seconds / against the interpreter loop / against the allocating loop:
# search's designated term 16% / 4.3% / 9.2%, srs-bisim's nd_right 12% /
# 2.5% / 6.9%, trace-close's m_ext fuel 160 6.3% / 2.7% / 6.9%, and
# omega-member's machine 61 5.7% / 5.4% / 1.1%.  The powers are rounded
# slopes of log job time on log loop time over ten runs of each workload,
# in which the loop's median ranged 1.0x to 2.7x its reference time: 0.93
# to 0.97 for srs-bisim and trace-close, 0.81 to 0.85 for search and
# omega-member.  In another ten runs srs-bisim's slopes were 0.74 to
# 0.83, so the powers are good to about 0.2, no finer.
REF_LOOPS = {"interp": (interp_loop, 0.003), "alloc": (alloc_loop, 0.0045)}
REF_OF = {"search": ("interp", 0.8), "srs-bisim": ("interp", 1.0),
          "trace-close": ("interp", 1.0), "omega-member": ("alloc", 0.8)}


class RefClock:
    """The runs of one reference loop in a measurement, by the time they
    ran.  The garbage collector is off while the loop runs, so a program
    that retunes the collector does not move the reference."""

    def __init__(self, kind: str, power: float):
        self.loop, self.ref_s = REF_LOOPS[kind]
        self.power = power
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self):
        was = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        self.loop()
        dt = perf_counter() - t0
        if was:
            gc.enable()
        self.at.append(t0 + dt / 2)
        self.took.append(dt)

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S

    def seconds(self, start: float, end: float) -> float:
        """The time from start to end at the reference speed: scaled by
        the loop's reference time over the median loop time within
        REF_WINDOW_S of it, to the workload's power."""
        lo = max(0, min(bisect.bisect_left(self.at, start - REF_WINDOW_S),
                        bisect.bisect_right(self.at, start) - 1))
        hi = max(bisect.bisect_right(self.at, end + REF_WINDOW_S),
                 bisect.bisect_left(self.at, end) + 1)
        loop_s = statistics.median(self.took[lo:hi])
        return (end - start) * (self.ref_s / loop_s) ** self.power


def set_up(name, seed, work, small, tr=None):
    t0 = perf_counter()
    M = fresh_irw()
    if tr is not None:
        tr.install()
        root = tr.open(tr.name_id("setup"))
    jobs = workloads.WORKLOADS[name](M, seed, work, small)
    if tr is not None:
        tr.close(root)
        tr.jobs = [j.name for j in jobs]
    return perf_counter() - t0, jobs


def run_pass(jobs, tr=None, clock=None):
    """Run every job once, in order; returns the pass time, each job's
    (start, end) and each job's (output, error).  With a ``clock``, its
    reference loop runs at the start and end of the pass and between jobs
    when due."""
    spans, outs = [], []
    if clock is not None:
        clock.tick()
    t_pass = perf_counter()
    for i, job in enumerate(jobs):
        if clock is not None and clock.due():
            clock.tick()
        if tr is not None:
            tr.job_id = i
            root = tr.open(tr.name_id("job"))
        t0 = perf_counter()
        try:
            out, err = job.run(), None
        except Exception as e:  # a raising job is a failed job; keep going
            out, err = None, f"{type(e).__name__}: {e}"
        spans.append((t0, perf_counter()))
        if tr is not None:
            tr.close(root)
        outs.append((out, err))
    wall = perf_counter() - t_pass
    if clock is not None:
        clock.tick()
    return wall, spans, outs


def check_all(jobs, passes, tr=None):
    """Check every output of every pass; returns (job, what, defect) for
    each failure, where defect names a known defect or is None."""
    failures = []
    for outs in passes:
        for i, (job, (out, err)) in enumerate(zip(jobs, outs)):
            if tr is not None:
                tr.job_id = i
                root = tr.open(tr.name_id("check"))
            if err is not None:
                f = workloads.Failure(err)
            else:
                try:
                    f = job.check(out)
                except Exception as e:  # a check that cannot read the output
                    f = workloads.Failure(f"check raised {type(e).__name__}: {e}")
            if tr is not None:
                tr.close(root)
            if f is not None:
                failures.append((job.name, f.what, f.defect or job.defect))
    return failures


def report_failures(failures, attempted) -> bool:
    """Print failed_frac and each distinct failure; True iff every failure
    is a known defect."""
    print(f"failed_frac {len(failures) / attempted:.6f} "
          f"({len(failures)} failed of {attempted} attempted)")
    seen: dict = {}
    for f in failures:
        seen[f] = seen.get(f, 0) + 1
    for (job, what, defect), n in seen.items():
        tag = f"known defect {defect}" if defect else "UNEXPECTED"
        print(f"  failed x{n} [{tag}] {job}: {what[:200]}")
    return all(defect for _, _, defect in failures)


def measure(name, seed, seconds, work, small=False):
    clock = RefClock(*REF_OF[name])
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        clock.tick()
        t0 = perf_counter()
        _, jobs = set_up(name, seed, work, small)
        setups.append((t0, perf_counter()))
    clock.tick()
    walls, spans, passes = [], [], []
    t_begin = perf_counter()
    wall = 0.0
    while not passes or perf_counter() - t_begin + wall <= seconds:
        gc.collect()
        wall, pass_spans, outs = run_pass(jobs, clock=clock)
        walls.append(wall)
        spans.append(pass_spans)
        passes.append(outs)
        times = [b - a for a, b in pass_spans]
        print(f"pass {len(passes)}: {wall:.4f} s, slowest "
              f"{jobs[times.index(max(times))].name} {max(times):.4f} s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_all(jobs, passes)
    attempted = len(jobs) * len(passes)
    print(f"workload {name} seed {seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"unscaled: median pass {statistics.median(walls):.4f} s, median set-up "
          f"{statistics.median(b - a for a, b in setups):.4f} s, median "
          f"{REF_OF[name][0]} loop {statistics.median(clock.took) * 1e3:.3f} ms")
    correct = report_failures(failures, attempted)
    medians = [statistics.median(clock.seconds(*p[i]) for p in spans)
               for i in range(len(jobs))]
    values = {"wall_s": sum(medians),
              "slowest_job_s": max(medians),
              "setup_s": statistics.median(clock.seconds(*t) for t in setups),
              "peak_rss_mb": peak_mb}
    for k, v in values.items():
        print(f"{k} {v:.6f} {END_TO_END[k]}")
    return correct, attempted, len(failures), values


def _shares(sums: dict) -> dict:
    total = sum(v for k, v in sums.items() if k != tracing.HOOK)
    return {k: v / total for k, v in sums.items() if k != tracing.HOOK and total > 0}


def _claim(name, tr, agg, per_job):
    prefix, spans = CLAIMS[name]
    if prefix is None:
        sums = {k: row[2] for k, row in agg["job"].items()}
        where = "the pass"
    else:
        sums = {}
        for jid, by_span in per_job.items():
            if tr.jobs[jid].startswith(prefix):
                for k, v in by_span.items():
                    sums[k] = sums.get(k, 0.0) + v
        where = f"jobs '{prefix}*'"
    shares = _shares(sums)
    got = sum(shares.get(s, 0.0) for s in spans)
    others = max((v for k, v in shares.items() if k not in spans), default=0.0)
    print(f"  claim: {'+'.join(spans)} is the largest self-time share on {where}: "
          f"{got:.3f} vs next {others:.3f} -> {'yes' if got >= others else 'NO'}")


def layer_values(name, agg, counters, wall_u, wall_t) -> dict:
    job = counters.get("job", {})
    out = {}
    for metric in LAYER_METRICS[name]:
        span, _, kind = metric.rpartition(".")
        row = agg[_PHASE_OF.get(span, "job")].get(span, [0, 0.0, 0.0])
        calls = agg["job"].get(span, [0])[0]
        if metric == "trace_overhead_frac":
            v = wall_t / wall_u - 1
        elif kind == "calls":
            v = row[0]
        elif kind == "self_s":
            v = row[2]
        elif kind == "hit_ratio":
            v = job.get("rewrite.match.hits", 0) / max(calls, 1)
        elif kind == "closed_ratio":
            v = job.get("rewrite.close_limit.closed", 0) / max(calls, 1)
        elif kind == "expansions_per_s":
            v = job.get("rewrite.search.expansions", 0) / max(job.get("rewrite.search.counted_us", 0) / 1e6, 1e-9)
        elif kind == "configs_per_s":
            v = job.get("omega.configs", 0) / max(job.get("omega.explore_runs.us", 0) / 1e6, 1e-9)
        else:
            v = job.get(metric, 0)
        out[f"{name}.{metric}"] = v
    return out


def traced(seed, work, small=False):
    """One untraced and one traced pass of every workload."""
    values, attempted, failures = {}, 0, []
    for name in workloads.WORKLOADS:
        _, jobs = set_up(name, seed, work, small)
        gc.collect()
        wall_u, _, _ = run_pass(jobs)
        del jobs
        tr = tracing.Tracer()
        tr.set_phase("setup")
        _, jobs = set_up(name, seed, work, small, tr)
        gc.collect()
        tr.set_phase("job")
        wall_t, _, outs = run_pass(jobs, tr)
        tr.set_phase("check")
        failures += check_all(jobs, [outs], tr)
        tr.uninstall()
        attempted += len(jobs)
        agg, per_job = tr.aggregate()
        tr.dump(OUT / f"spans-{name}.bin")
        values.update(layer_values(name, agg, tr.phase_counters, wall_u, wall_t))
        print(f"== {name}: pass {wall_u:.4f} s untraced, {wall_t:.4f} s traced "
              f"({len(tr.name)} spans)")
        shares = _shares({k: row[2] for k, row in agg["job"].items()})
        for span, share in sorted(shares.items(), key=lambda kv: -kv[1])[:10]:
            row = agg["job"][span]
            print(f"  {span:32s} self {row[2]:9.4f} s  share {share:.3f}  calls {row[0]}")
        _claim(name, tr, agg, per_job)
        if name == "search":
            print("  (expansion counts come from exhausted searches only: a "
                  "successful search returns no counters)")
        del tr, jobs, outs
    values.update(doubling(small))
    values["src_loc"] = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    for k in GLOBAL_METRICS:
        print(f"{k} {values[k]}")
    correct = report_failures(failures, attempted)
    return correct, attempted, len(failures), values


def doubling(small):
    """close_limit over the first N, 2N and 4N steps of the non-closing
    leftmost-outermost m_ext run."""
    M = fresh_irw()
    n = 5 if small else DOUBLING_N
    trs, _ = M.encode.compile_construction("base", M.machines.load_fixture("m_ext"))
    start = M.terms.parse_term("q0(end, end)", trs.sig, ground=True)
    steps = M.rewrite.run_strategy(trs, start, fuel=4 * n).trace.all_steps
    out = {}
    for k in (1, 2, 4):
        t0 = perf_counter()
        attempt = M.rewrite.close_limit(steps[:k * n])
        dt = perf_counter() - t0
        if attempt.closure is not None:
            raise RuntimeError("the m_ext run closed")
        out[f"rewrite.close_limit.doubling.n{k * DOUBLING_N}_s"] = dt
    return out


def main(argv=None, small=False) -> int:
    ap = argparse.ArgumentParser(description="irw benchmark")
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "irw" / "__init__.py").is_file():
        print(f"no irw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            correct, attempted, failed, values = traced(args.seed, work, small)
        else:
            correct, attempted, failed, values = measure(
                args.workload, args.seed, args.seconds, work, small)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = metric_names(bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
