import gc
import runpy
from pathlib import Path

import pytest

from irw.machines import load_fixture, parse_machine
from irw.omega import (
    NdConfig, OmegaWord, classify_run, explore_runs, format_word,
    membership_semidecide, nd_steps, parse_word, visit_stats,
)
from irw.turing import MachineError


@pytest.fixture(scope="module")
def right():
    return load_fixture("nd_right")


@pytest.fixture(scope="module")
def pong():
    return load_fixture("nd_pong")


# drifts right in q0 but may switch to a 0/1 bounce between q1/q2
TWO_BRANCH = parse_machine("""
machine two_branch
kind nondet-one-sided
states q0 q1 q2
initial q0
blank _
alphabet _ a b
delta q0 a -> q0 a R
delta q0 a -> q1 a R
delta q1 a -> q2 a L
delta q2 a -> q1 a R
end
""")


def move(a, b):
    """The move (state, write, L|R) from a to its successor b, read off
    the two configurations."""
    return (b.state, b.symbol_at(a.head), "R" if b.head > a.head else "L")


def replay(m, cur, mv):
    """cur's successor under nd_steps by the move mv, which must be legal."""
    legal = {move(cur, n): n for n in nd_steps(m, cur)}
    assert mv in legal, (m.delta, cur, mv)
    return legal[mv]


class TestWords:
    def test_parse_and_format(self):
        w = parse_word("ab(ba)^w")
        assert w.prefix == ("a", "b") and w.cycle == ("b", "a")
        assert format_word(w) == "ab(ba)^w"

    def test_normalization(self):
        assert parse_word("abb(ab)^w").normalized() == parse_word("ab(ba)^w").normalized()
        assert parse_word("(abab)^w").normalized() == parse_word("(ab)^w").normalized()

    def test_indexing(self):
        w = parse_word("ab(ba)^w")
        assert [w.at(i) for i in range(6)] == ["a", "b", "b", "a", "b", "a"]

    def test_alphabet_check(self, right):
        with pytest.raises(MachineError):
            parse_word("(z)^w", right.alphabet)

    def test_empty_cycle_rejected(self):
        with pytest.raises(MachineError):
            parse_word("ab()^w")

    def test_constructor_refuses_empty_cycle(self):
        with pytest.raises(MachineError, match="cycle must be nonempty"):
            OmegaWord(("a",), ())


class TestSteps:
    def test_drift(self, right):
        c = NdConfig(parse_word("(a)^w"), "q0", 5)
        succ = nd_steps(right, c)
        assert len(succ) == 1 and succ[0].head == 6 and succ[0].state == "q0"

    def test_left_blocked_at_zero(self, pong):
        c0 = NdConfig(parse_word("(a)^w"), "q1", 0)
        assert nd_steps(pong, c0) == []
        c1 = NdConfig(parse_word("(a)^w"), "q1", 1)
        succ = nd_steps(pong, c1)
        assert len(succ) == 1 and succ[0].head == 0 and succ[0].state == "q0"

    def test_stuck_empty_row(self, right):
        m = parse_machine("machine s\nkind nondet-one-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ a b\nend")
        assert nd_steps(m, NdConfig(parse_word("(a)^w"), "q0", 0)) == []

    def test_write_overlay_normalized(self, right):
        c = NdConfig(parse_word("(a)^w"), "q0", 0)
        succ = nd_steps(right, c)[0]
        assert succ.writes == {}
        # the constructor drops an overlay cell that restores the base
        # symbol, so a step that writes back what it read keeps none
        c = NdConfig(parse_word("(a)^w"), "q0", 0, {0: "a", 3: "b"})
        assert c.writes == {3: "b"}
        assert nd_steps(right, c)[0].writes == {3: "b"}

    def test_constructor_equality_is_semantic(self):
        w = parse_word("(a)^w")
        c, d = NdConfig(w, "q0", 0, {0: "a"}), NdConfig(w, "q0", 0)
        assert c == d and hash(c) == hash(d)

    def test_overlays_shared_only_when_unchanged(self):
        m = parse_machine("machine w\nkind nondet-one-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ a b\n"
                          "delta q0 a -> q0 a R\ndelta q0 a -> q0 b R\nend")
        given = {1: "b"}
        c = NdConfig(parse_word("(a)^w"), "q0", 0, given)
        assert c.writes == given and c.writes is not given
        same, wrote = nd_steps(m, c)
        assert same.writes is c.writes
        assert wrote.writes == {0: "b", 1: "b"} and c.writes == {1: "b"}

    def test_one_sidedness_everywhere(self, pong):
        w = parse_word("(a)^w")
        frontier = [NdConfig(w, pong.initial, 0)]
        for _ in range(30):
            nxt = []
            for c in frontier:
                assert c.head >= 0
                nxt.extend(nd_steps(pong, c))
            frontier = nxt[:8]


class TestExplore:
    def test_right_lasso(self, right):
        runs = explore_runs(right, parse_word("(a)^w"), fuel=20)
        assert len(runs) == 1
        r = runs[0]
        assert r.status == "lassoed" and r.lasso.displacement == 1

    def test_pong_lasso(self, pong):
        runs = explore_runs(pong, parse_word("(a)^w"), fuel=20)
        assert len(runs) == 1
        r = runs[0]
        assert r.status == "lassoed" and r.lasso.displacement == 0
        heads = [c.head for c in r.configs]
        assert heads == [0, 1, 0]

    def test_negative_radius_refused(self, right):
        w = parse_word("(a)^w")
        with pytest.raises(MachineError):
            explore_runs(right, w, fuel=5, radius=-3)
        with pytest.raises(MachineError):
            membership_semidecide(right, w, fuel=5, radius=-1)
        assert explore_runs(right, w, fuel=5, radius=0)[0].status == "lassoed"

    def test_stuck_run(self):
        m = parse_machine("machine s\nkind nondet-one-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ a b\nend")
        runs = explore_runs(m, parse_word("(a)^w"), fuel=5)
        assert len(runs) == 1 and runs[0].status == "stuck"
        assert len(runs[0].configs) == 1

    def test_pump_soundness_replay(self, right, pong):
        for m, w in [(right, "(a)^w"), (right, "ab(ba)^w"), (pong, "(a)^w")]:
            for r in explore_runs(m, parse_word(w), fuel=30):
                if r.lasso is None:
                    continue
                j = r.lasso.cycle_start
                k = j + r.lasso.cycle_length
                cur = r.configs[k]
                for t in range(j, k):
                    cur = replay(m, cur, move(r.configs[t], r.configs[t + 1]))
                assert cur.state == r.configs[k].state
                assert cur.head == r.configs[k].head + r.lasso.displacement


class TestClassify:
    def test_right_accepting(self, right):
        r = explore_runs(right, parse_word("(a)^w"), fuel=20)[0]
        c = classify_run(r)
        assert (c.complete, c.oscillating, c.accepting) == ("yes", "no", "yes")

    def test_pong_oscillating(self, pong):
        r = explore_runs(pong, parse_word("(a)^w"), fuel=20)[0]
        c = classify_run(r)
        assert (c.complete, c.oscillating, c.accepting) == ("no", "yes", "no")

    def test_truncated_unknown(self, pong):
        runs = explore_runs(pong, parse_word("(a)^w"), fuel=1)
        c = classify_run(runs[0])
        assert (c.complete, c.oscillating, c.accepting) == \
            ("unknown", "unknown", "unknown")

    def test_acceptance_consistency(self, right, pong):
        for m, w in [(right, "(a)^w"), (pong, "(a)^w")]:
            for r in explore_runs(m, parse_word(w), fuel=30):
                c = classify_run(r)
                assert (c.accepting == "yes") == \
                    (c.complete == "yes" and c.oscillating == "no")


OMEGA_WORDS = ("(a)^w", "(b)^w", "(_)^w", "(ab)^w", "(aab)^w", "a(b)^w",
               "b(ba)^w", "ab(ba)^w")


class TestExactMerges:
    """Only a merge into the same configuration, held by another branch,
    supports rejected_exhausted.  A branch whose window key alone matches
    may still accept, so a window merge leaves the verdict unknown."""

    def test_repro_is_unknown(self):
        # Every run of the benchmark's repro machine on b(ba)^w moves
        # right forever and accepts; each branch ends on a window merge.
        workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        m = parse_machine(runpy.run_path(str(workloads))["BUG_MACHINE"])
        w = parse_word("b(ba)^w", m.alphabet)
        assert {r.status for r in explore_runs(m, w)} == {"window-merged"}
        assert membership_semidecide(m, w).kind == "unknown"

    @pytest.mark.parametrize("wtext", OMEGA_WORDS)
    def test_seeded_sweep(self, wtext):
        # The runs of machines 162 and 290 on ab(ba)^w end stuck, merged,
        # window-merged or in zero-displacement lassos: only the window
        # merges keep them from rejected_exhausted, and no other verdict
        # of the sweep rests on one.
        import random
        from irw.laws import gen_nd_machine
        from irw.omega import _membership
        rng = random.Random(1)
        window_only = set()
        for i in range(300):
            m = gen_nd_machine(rng)
            runs = explore_runs(m, parse_word(wtext, m.alphabet))
            kind = _membership(runs).kind
            statuses = {r.status for r in runs}
            if kind == "rejected_exhausted":
                assert "window-merged" not in statuses, i
            if "window-merged" in statuses and all(
                    r.status in ("stuck", "merged", "window-merged") or
                    (r.status == "lassoed" and r.lasso.displacement == 0)
                    for r in runs):
                assert kind == "unknown"
                window_only.add(i)
        assert window_only == ({162, 290} if wtext == "ab(ba)^w" else set())


class TestMembership:
    def test_right_accepts_everything(self, right):
        for w in OMEGA_WORDS + ("b(ab)^w",):
            assert membership_semidecide(right, parse_word(w), fuel=40).kind == "accepted"

    def test_pong_rejects_everything(self, pong):
        for w in OMEGA_WORDS:
            got = membership_semidecide(pong, parse_word(w), fuel=40)
            assert got.kind == "rejected_exhausted"

    def test_two_branch_accepted(self):
        got = membership_semidecide(TWO_BRANCH, parse_word("(a)^w"), fuel=40)
        assert got.kind == "accepted"
        assert got.run.lasso.displacement > 0

    def test_unknown_when_too_small(self, right):
        got = membership_semidecide(right, parse_word("(a)^w"), fuel=2)
        assert got.kind == "unknown"


class TestCollectorPause:
    """Run exploration, and membership until its verdict is read, run with
    the cyclic collector paused; either leaves it as it found it, whether
    it returns or raises."""

    @pytest.mark.parametrize("was_on", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("fuel", [40, 0], ids=["returns", "raises"])
    @pytest.mark.parametrize("call, watched", [
        (explore_runs, "nd_steps"), (membership_semidecide, "classify_run")])
    def test_collector_state(self, monkeypatch, right, call, watched, fuel,
                             was_on):
        import irw.omega
        seen = []
        real = getattr(irw.omega, watched)

        def watching(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(irw.omega, watched, watching)
        before = gc.isenabled()
        try:
            gc.enable() if was_on else gc.disable()
            if fuel < 1:
                with pytest.raises(MachineError):
                    call(right, parse_word("(a)^w"), fuel=fuel)
            else:
                call(right, parse_word("(a)^w"), fuel=fuel)
                assert seen and not any(seen)
            assert gc.isenabled() == was_on
        finally:
            gc.enable() if before else gc.disable()


class TestStatsAgreement:
    def test_right_complete_not_oscillating(self, right):
        s = visit_stats(right, parse_word("(a)^w"), 10_000)
        assert s["max_position"] > 100
        assert s["max_revisit"] <= 100

    def test_pong_oscillating_not_complete(self, pong):
        s = visit_stats(pong, parse_word("(a)^w"), 10_000)
        assert s["max_revisit"] > 100
        assert s["max_position"] <= 100

    def test_stuck_at_once(self):
        m = parse_machine("machine z\nkind nondet-one-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ a\nend")
        s = visit_stats(m, parse_word("(a)^w"), 10)
        assert s == {"visits": {0: 1}, "max_position": 0, "max_revisit": 1,
                     "steps": 0}

    def test_accepting_run_visits_prefix(self, right):
        s = visit_stats(right, parse_word("(a)^w"), 1000)
        assert all(p in s["visits"] for p in range(s["max_position"]))


class TestLassoStress:
    def test_random_machines_multi_cycle_replay(self):
        # every certified lasso must keep reproducing itself: replay the
        # cycle's moves many times and check the configuration keeps
        # shifting by exactly d with identical relative window
        import random
        from irw.laws import gen_nd_machine
        rng = random.Random(99)
        lassos = 0
        for _ in range(60):
            m = gen_nd_machine(rng)
            for wtext in ["(a)^w", "ab(ba)^w", "(ab)^w"]:
                w = parse_word(wtext, m.alphabet)
                for r in explore_runs(m, w, fuel=60, width=16):
                    if r.lasso is None:
                        continue
                    lassos += 1
                    j = r.lasso.cycle_start
                    k = j + r.lasso.cycle_length
                    d = r.lasso.displacement
                    lo, hi = r.lasso.window
                    base = r.configs[k]
                    cycle_moves = [move(a, b) for a, b in
                                   zip(r.configs[j:k], r.configs[j + 1:k + 1])]
                    cur = base
                    for cycle in range(1, 6):
                        for mv in cycle_moves:
                            cur = replay(m, cur, mv)
                        assert cur.state == base.state
                        assert cur.head == base.head + cycle * d
                        for off in range(lo, hi + 1):
                            if cur.head + off < 0:
                                continue
                            assert cur.symbol_at(cur.head + off) == \
                                base.symbol_at(base.head + off)
        assert lassos > 20  # the sample actually exercised the validator

    def test_classification_matches_long_simulation(self):
        # deterministic fixtures: the lasso verdict must agree with a long
        # concrete run
        for name, accepting in [("nd_right", True), ("nd_pong", False)]:
            m = load_fixture(name)
            w = parse_word("(a)^w", m.alphabet)
            run = explore_runs(m, w, fuel=30)[0]
            cls = classify_run(run)
            stats = visit_stats(m, w, 5000)
            if accepting:
                assert cls.accepting == "yes"
                assert stats["max_revisit"] <= len(m.states) * 4
            else:
                assert cls.oscillating == "yes"
                assert stats["max_position"] <= 4


def _machine(*rows):
    return parse_machine("machine h\nkind nondet-one-sided\nstates q0 q1\n"
                         "initial q0\nblank _\nalphabet _ a b\n"
                         + "".join(f"delta {r}\n" for r in rows) + "end")


_RIGHT = ("q0 a -> q0 a R",)

# name: (delta rows, word, configs as (state, head, writes)).  The
# configurations are built by hand, so that each candidate reaches one
# refusal of _validate_lasso with every test before it passed.
_BAD_LASSOS = {
    "d<0": (("q0 a -> q0 a L",), "(a)^w", [("q0", 1, {}), ("q0", 0, {})]),
    "state": (("q0 a -> q1 a R",), "(a)^w", [("q0", 0, {}), ("q1", 1, {})]),
    "d=0-config": (_RIGHT, "(a)^w", [("q0", 0, {}), ("q0", 0, {0: "b"})]),
    "phase-cycle": (_RIGHT, "(ab)^w", [("q0", 0, {}), ("q0", 1, {})]),
    "phase-prefix": (_RIGHT, "b(a)^w", [("q0", 0, {}), ("q0", 1, {})]),
    "window": (_RIGHT, "(a)^w", [("q0", 0, {}), ("q0", 1, {2: "b"})]),
    "writes-beyond": (_RIGHT, "(a)^w", [("q0", 0, {}), ("q0", 1, {5: "b"})]),
    # The step writes b on cell 0, which no delta entry allows.
    "illegal-choice": (_RIGHT, "(a)^w", [("q0", 0, {}), ("q0", 1, {0: "b"})]),
    # The move q0 a R is legal on a and on b from q1; the recorded
    # middle configuration reads b where the replay reads a.
    "replayed-read": (("q0 a -> q1 a R", "q1 a -> q0 a R", "q1 b -> q0 a R"),
                      "(a)^w",
                      [("q0", 0, {}), ("q1", 1, {1: "b"}), ("q0", 2, {})]),
    # The windows agree, but the replay carries the b one cell ahead.
    "end-window": (_RIGHT, "(a)^w", [("q0", 0, {1: "b"}), ("q0", 1, {2: "b"})]),
}


def _candidate(rows, word, configs):
    w = parse_word(word)
    return _machine(*rows), [NdConfig(w, q, h, ws) for q, h, ws in configs]


class TestValidateLasso:
    @pytest.mark.parametrize("rows, word, configs, want", [
        (_RIGHT, "(a)^w", [("q0", 0, {}), ("q0", 1, {})], (0, 1, 1, (0, 1))),
        (("q0 a -> q1 a R", "q1 a -> q0 a L"), "(a)^w",
         [("q0", 0, {}), ("q1", 1, {}), ("q0", 0, {})], (0, 2, 0, (0, 1))),
    ], ids=["drift", "bounce"])
    def test_certified(self, rows, word, configs, want):
        from irw.omega import Lasso, _validate_lasso
        m, cs = _candidate(rows, word, configs)
        assert _validate_lasso(m, cs, 0, len(cs) - 1) == Lasso(*want)

    @pytest.mark.parametrize("name", list(_BAD_LASSOS))
    def test_refused(self, name):
        from irw.omega import _validate_lasso
        m, cs = _candidate(*_BAD_LASSOS[name])
        assert _validate_lasso(m, cs, 0, len(cs) - 1) is None


def reference_steps(m, c):
    """Successors straight from the delta table, each on a fresh overlay
    with every cell that holds its base symbol filtered out, as (move,
    config) pairs; it shares no code with omega.nd_steps."""
    out = []
    for q2, f2, d in m.delta.get((c.state, c.symbol_at(c.head)), ()):
        if d == "L" and c.head == 0:
            continue
        cells = dict(c.writes)
        cells[c.head] = f2
        writes = {i: s for i, s in cells.items() if s != c.word.at(i)}
        head = c.head + 1 if d == "R" else c.head - 1
        out.append(((q2, f2, d), NdConfig(c.word, q2, head, writes)))
    return out


def reference_explore(m, w, fuel, width, radius=None):
    """The list-copying explore_runs loop the run tree replaced: every
    branch carries its own configs and key -> index map, and every key is
    computed from scratch by _dedup_key.  Each key maps to the first
    configuration that reached it, and a branch reaching a key another
    branch holds is merged only if its configuration equals that one.
    Each delta move must be the one read off the two configurations it
    joins."""
    from irw.omega import (
        RunPrefix, _dedup_key, _default_radius, _validate_lasso,
    )
    radius = radius if radius is not None else _default_radius(m, w)
    start = NdConfig(w, m.initial, 0)
    runs = []
    first = {_dedup_key(start, w, radius): start}
    frontier = [([start], {_dedup_key(start, w, radius): 0})]
    depth = 0
    while frontier and depth < fuel:
        depth += 1
        nxt_frontier = []
        for configs, keyidx in frontier:
            succ = reference_steps(m, configs[-1])
            if not succ:
                runs.append(RunPrefix(configs, "stuck"))
                continue
            for ch, nc in succ:
                assert move(configs[-1], nc) == ch
                key = _dedup_key(nc, w, radius)
                nconfigs = configs + [nc]
                if key in keyidx:
                    lasso = _validate_lasso(m, nconfigs, keyidx[key],
                                            len(nconfigs) - 1)
                    status = "lassoed" if lasso else "failed"
                    runs.append(RunPrefix(nconfigs, status, lasso))
                    continue
                if key in first:
                    runs.append(RunPrefix(nconfigs, "merged" if nc == first[key]
                                          else "window-merged"))
                    continue
                first[key] = nc
                nkeyidx = dict(keyidx)
                nkeyidx[key] = len(nconfigs) - 1
                nxt_frontier.append((nconfigs, nkeyidx))
        if len(nxt_frontier) > width:
            for configs, _ in nxt_frontier[width:]:
                runs.append(RunPrefix(configs, "cut"))
            nxt_frontier = nxt_frontier[:width]
        frontier = nxt_frontier
    for configs, _ in frontier:
        runs.append(RunPrefix(configs, "cut"))
    runs.sort(key=lambda r: (len(r.configs),
                             [(c.state, c.head, tuple(sorted(c.writes.items())))
                              for c in r.configs]))
    return runs


def reference_verdict(runs):
    # A window-merged branch may go on to accept: it never supports a
    # rejection.
    for r in runs:
        if r.lasso is not None and r.lasso.displacement > 0:
            return "accepted", r
    if all(r.status in ("stuck", "merged") or
           (r.status == "lassoed" and r.lasso.displacement == 0)
           for r in runs):
        return "rejected_exhausted", None
    return "unknown", None


def run_fingerprint(r):
    return (r.status, [c._key() for c in r.configs],
            [move(a, b) for a, b in zip(r.configs, r.configs[1:])], r.lasso)


class TestRunTreeOracle:
    def _check(self, m, w, fuel, width, radius=None):
        runs = explore_runs(m, w, fuel=fuel, width=width, radius=radius)
        want = reference_explore(m, w, fuel, width, radius)
        assert [run_fingerprint(r) for r in runs] == \
            [run_fingerprint(r) for r in want]
        for r in runs:
            for c in r.configs:
                assert c._key() == (c.state, c.head,
                                    tuple(sorted(c.writes.items())))
        got = membership_semidecide(m, w, fuel=fuel, width=width, radius=radius)
        kind, run = reference_verdict(want)
        assert got.kind == kind
        assert (got.run and run_fingerprint(got.run)) == \
            (run and run_fingerprint(run))
        return runs

    def test_seeded_machines(self):
        import random
        from irw.laws import gen_nd_machine
        rng = random.Random(5)
        statuses = set()
        for i in range(60):
            m = gen_nd_machine(rng)
            for wtext in OMEGA_WORDS:
                w = parse_word(wtext, m.alphabet)
                runs = self._check(m, w, 40, 16, 40 if i % 20 == 0 else None)
                statuses.update(r.status for r in runs)
        assert statuses == {"lassoed", "merged", "window-merged", "stuck",
                            "cut", "failed"}

    def test_fixtures(self, right, pong):
        for m in (right, pong, TWO_BRANCH):
            for wtext in OMEGA_WORDS[:4] + ("ab(ba)^w",):
                self._check(m, parse_word(wtext, m.alphabet), 120, 64)

    def test_corners(self):
        import random
        from irw.laws import gen_nd_machine
        rng = random.Random(11)
        for _ in range(12):
            m = gen_nd_machine(rng)
            for wtext in ("(a)^w", "ab(ba)^w", "b(ba)^w"):
                w = parse_word(wtext, m.alphabet)
                self._check(m, w, 40, 1)
                self._check(m, w, 1, 64)
                self._check(m, w, 40, 16, 40)
                # small radii: windows reach left of cell 0 ("<") and
                # span the prefix; at radius 0 the window is the head cell
                for radius in (0, 1, 2):
                    self._check(m, w, 40, 16, radius)


class TestSharedOverlays:
    def test_runs_replay_with_fresh_overlays(self):
        # Configurations share overlay dicts once explored; replaying each
        # run's moves on fresh dicts must give the same overlay and key
        # for every configuration, after the whole exploration is over.
        import random
        from irw.laws import gen_nd_machine
        rng = random.Random(3)
        configs = 0
        for i in range(40):
            m = gen_nd_machine(rng)
            for wtext in ("(a)^w", "ab(ba)^w", "(_b)^w"):
                w = parse_word(wtext, m.alphabet)
                for radius in (None, 0, 2):
                    for r in explore_runs(m, w, fuel=40, width=16, radius=radius):
                        cur = NdConfig(w, m.initial, 0)
                        assert r.configs[0]._key() == cur._key()
                        for a, c in zip(r.configs, r.configs[1:]):
                            cur = dict(reference_steps(m, cur))[move(a, c)]
                            assert c.writes == cur.writes, (i, wtext, radius)
                            assert c._key() == cur._key(), (i, wtext, radius)
                            configs += 1
        assert configs > 5_000
