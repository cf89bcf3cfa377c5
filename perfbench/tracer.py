"""Spans around calls into irw's public functions, recorded from outside
the program.

``Tracer.install`` replaces each traced function wherever it is bound in an
``irw.*`` module namespace, which includes the names other modules bind with
``from .terms import ...``; ``uninstall`` puts the originals back.  Every
call then records a span: name, start, end, parent span and the id of the
job it ran in.  Spans are kept in memory in flat arrays and written out by
``dump`` at the end of the run.  A span's self time is its duration minus
the durations of its direct children.

Hooks read counters off a traced call's result (match hits, closures,
search expansions, omega branch statuses).  A hook runs inside its own
``perfbench.hook`` span so that its cost is not charged to any layer.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

HOOK = "perfbench.hook"


def _match_hook(counters, result, dur):
    if result is not None:
        counters["rewrite.match.hits"] += 1


def _close_hook(counters, result, dur):
    if result.closure is not None:
        counters["rewrite.close_limit.closed"] += 1


def _search_hook(counters, result, dur):
    # Expansion counts are only returned when a search is exhausted.
    found = getattr(result, "found", None)
    if found is None:
        found = result.reached
    if not found and "expansions" in result.diagnostics:
        counters["rewrite.search.expansions"] += result.diagnostics["expansions"]
        counters["rewrite.search.distinct_terms"] += result.diagnostics["distinct_terms"]
        counters["rewrite.search.counted_us"] += round(dur * 1e6)


def _explore_hook(counters, result, dur):
    seen = set()
    for run in result:
        counters[f"omega.runs.{run.status}"] += 1
        seen.update(id(c) for c in run.configs)
    counters["omega.configs"] += len(seen)
    counters["omega.explore_runs.us"] += round(dur * 1e6)


# (module, function, span name, hook).  Names that share a span name are
# one function group.
TARGETS = [
    ("terms", "is_finite", "terms.is_finite", None),
    ("terms", "canon_key", "terms.canon_key", None),
    ("terms", "bisim_equal", "terms.bisim_equal", None),
    ("terms", "replace_at", "terms.replace_at", None),
    ("terms", "print_term", "terms.print_term", None),
    ("terms", "parse_term", "terms.parse_term", None),
    ("rewrite", "match", "rewrite.match", _match_hook),
    ("rewrite", "find_redexes", "rewrite.find_redexes", None),
    ("rewrite", "apply_step", "rewrite.apply_step", None),
    ("rewrite", "is_normal_form", "rewrite.is_normal_form", None),
    ("rewrite", "close_limit", "rewrite.close_limit", _close_hook),
    ("rewrite", "validate_certificate", "rewrite.validate_certificate", None),
    ("rewrite", "bounded_normalize", "rewrite.search", _search_hook),
    ("rewrite", "bounded_reach", "rewrite.search", _search_hook),
    ("rewrite", "run_strategy", "rewrite.run_strategy", None),
    ("rewrite", "limit_approximant", "rewrite.limit_approximant", None),
    ("rewrite", "replay_trace", "rewrite.replay_trace", None),
    ("rewrite", "parse_trs", "rewrite.parse_trs", None),
    ("rewrite", "render_trace", "rewrite.render_trace", None),
    ("omega", "explore_runs", "omega.explore_runs", _explore_hook),
    ("omega", "membership_semidecide", "omega.membership_semidecide", None),
    ("encode", "phi", "encode.phi", None),
    ("encode", "tm_to_trs", "encode.build", None),
    ("encode", "pebble_trs", "encode.build", None),
    ("encode", "pickn_trs", "encode.build", None),
    ("encode", "build_S", "encode.build", None),
    ("encode", "build_S_prime", "encode.build", None),
    ("encode", "nd_to_srs", "encode.build", None),
    ("encode", "build_R", "encode.build", None),
    ("encode", "compile_construction", "encode.build", None),
    ("encode", "emit_trs_file", "encode.build", None),
    ("laws", "check_srs_bisim", "laws.check_srs_bisim", None),
    ("laws", "greedy_cycle_run", "laws.greedy_cycle_run", None),
    ("laws", "gen_nd_machine", "laws.gen_nd_machine", None),
    ("machines", "load_fixture", "machines.load_fixture", None),
    ("machines", "parse_machine", "machines.parse_machine", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.jobs: list[str] = []
        self.phase_counters: dict[str, Counter] = {}
        self.counters: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def set_phase(self, phase: str) -> None:
        """Send hook counts to the counters of the named phase."""
        self.counters = self.phase_counters.setdefault(phase, Counter())

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, nid: int, hook):
        tr, hook_id = self, self.name_id(HOOK)

        def traced(*args, **kwargs):
            idx = tr.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if hook is not None:
                h = tr.open(hook_id)
                hook(tr.counters, result, tr.end[idx] - tr.start[idx])
                tr.close(h)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded irw module that binds it."""
        mods = [m for n, m in sys.modules.items() if n == "irw" or n.startswith("irw.")]
        for modname, fname, span, hook in TARGETS:
            fn = getattr(sys.modules[f"irw.{modname}"], fname)
            wrapped = self._wrap(fn, self.name_id(span), hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._installed.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def aggregate(self):
        """Self time per span name and phase, where a span's phase is the
        name of its root span (setup, job or check).  Returns
        {phase: {span name: [calls, total s, self s]}} and, for the job
        phase, {job id: {span name: self s}}."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        root = array("i", bytes(4 * n))
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = self.name[i]
            else:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        agg: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        per_job: dict = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            nm, phase = self.names[self.name[i]], self.names[root[i]]
            dur = self.end[i] - self.start[i]
            row = agg[phase][nm]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if phase == "job":
                per_job[self.job[i]][nm] += dur - child[i]
        return agg, per_job

    def dump(self, path) -> None:
        """Write the spans: one JSON header line (field order, span names,
        job names, counters per phase), then the arrays name, parent, job
        (int32) and start, end (float64, perf_counter seconds), each of
        `count` items."""
        with open(path, "wb") as f:
            head = {"count": len(self.name), "names": self.names, "jobs": self.jobs,
                    "fields": ["name:i", "parent:i", "job:i", "start:d", "end:d"],
                    "counters": {p: dict(c) for p, c in self.phase_counters.items()}}
            f.write((json.dumps(head) + "\n").encode())
            for arr in (self.name, self.parent, self.job, self.start, self.end):
                arr.tofile(f)
