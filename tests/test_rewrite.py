import dataclasses
import functools
import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from irw.encode import build_R, build_S_prime, pickn_trs, tm_to_trs
from irw.laws import greedy_cycle_run
from irw.machines import load_fixture
from irw.rewrite import (
    Closure, Epoch, NoMatchError, PumpCertificate, Rule, Step, Trace, Trs,
    TrsError, apply_step,
    bounded_normalize, bounded_reach, canon_key, close_limit, find_redexes,
    format_trs, instantiate, is_normal_form, limit_approximant, match,
    parse_trs,
    render_trace, replay_trace, run_strategy, stable_prefix,
    step_reachability, validate_certificate,
)
from irw.terms import (
    PositionError, Signature, Symbol, Term, app,
    bisim_equal, parse_term, print_term, replace_at, subterm_at, var,
)


@pytest.fixture(scope="module")
def pickn():
    return pickn_trs()


@pytest.fixture(scope="module")
def r_right():
    return build_R(load_fixture("nd_right"))


@pytest.fixture(scope="module")
def xi_only():
    sig = Signature([Symbol("xi", 0), Symbol("a", 1), Symbol("b", 1)])
    P = lambda s: parse_term(s, sig)
    return Trs(sig, [Rule("xi.a", P("xi"), P("a(xi)")),
                     Rule("xi.b", P("xi"), P("b(xi)"))])


def T(trs, s):
    return parse_term(s, trs.sig)


def _check_implied_facts(steps, closure):
    """The two facts of a closure that the pump detector does not test,
    since a chained run of genuine steps implies them: the term one cycle
    on equals the cycle's start outside the hole, and the certificate's
    profile is each block's minimum step depth, strictly increasing."""
    cert = closure.certificate
    i, L, hole = cert.cycle_start, cert.cycle_length, cert.hole
    t0, t1 = steps[i].before, steps[i + L].before
    assert bisim_equal(replace_at(t0, hole, subterm_at(t1, hole)), t1)
    profile = tuple(min(s.depth for s in steps[i + k * L:i + (k + 1) * L])
                    for k in range((len(steps) - i) // L))
    assert cert.min_depth_profile == profile
    assert all(b > a for a, b in zip(profile, profile[1:]))


class TestMatching:
    def test_linear(self, pickn):
        b = match(T(pickn, "c(ok(x))"), T(pickn, "c(ok(0(end)))"))
        assert b is not None and print_term(b["x"]) == "0(end)"

    def test_nonlinear_needs_bisim(self, r_right):
        lhs = r_right.rule("run.restart").lhs
        subj = T(r_right, "run(bot, bot, xi, rec X . a(X))")
        assert match(lhs, subj) is None
        subj2 = T(r_right, "run(bot, bot, rec X . a(X), a(rec Y . a(Y)))")
        assert match(lhs, subj2) is not None

    def test_rule_validation(self):
        sig = Signature([Symbol("f", 1), Symbol("e", 0)])
        with pytest.raises(TrsError, match="variable"):
            Rule("bad", var("x"), var("x"))
        with pytest.raises(TrsError, match="rhs variables"):
            Rule("bad", app(sig.get("f"), var("x")), var("y"))

    def test_rule_sides_must_be_finite(self):
        sig = Signature([Symbol("f", 1)])
        loop = parse_term("rec X . f(X)", sig)
        for lhs, rhs in ((loop, var("x")), (app(sig.get("f"), var("x")), loop)):
            with pytest.raises(TrsError, match="must be finite"):
                Rule("bad", lhs, rhs)


class TestRedexes:
    def test_pickn_root_two_rules(self, pickn):
        assert find_redexes(pickn, T(pickn, "pickn"), 0) == \
            [((), "pickn.c"), ((), "pickn.ok")]

    def test_stop_rule_on_equal_args(self, r_right):
        t = T(r_right, "run(xi, xi, rec X . a(X), bot)")
        reds = find_redexes(r_right, t, 0)
        assert ((), "run.stop") in reds
        assert all(r != "run.restart" for _, r in reds)
        # and the restart rule needs the last two arguments bisimilar
        t2 = T(r_right, "run(bot, xi, rec X . a(X), a(rec Y . a(Y)))")
        assert ((), "run.restart") in find_redexes(r_right, t2, 0)

    def test_no_match_in_cycle(self, xi_only):
        t = T(xi_only, "rec X . a(X)")
        assert find_redexes(xi_only, t, 2) == []

    def test_depth_bound_restricts(self, pickn):
        t = T(pickn, "c(c(pickn))")
        assert find_redexes(pickn, t, 1) == []
        assert find_redexes(pickn, t, 2) == [((1, 1), "pickn.c"), ((1, 1), "pickn.ok")]

    def test_lex_order_matches_bruteforce(self, pickn):
        t = T(pickn, "c(ok(S(0(end))))")
        reds = find_redexes(pickn, t, 8)
        # brute force over all positions of the finite term
        brute = []
        def walk(node, pos):
            for r in pickn.rules:
                if match(r.lhs, node) is not None:
                    brute.append((pos, r.rid))
            for i, c in enumerate(node.children, 1):
                walk(c, pos + (i,))
        walk(t, ())
        assert reds == sorted(brute, key=lambda pr: (pr[0], [x.rid for x in pickn.rules].index(pr[1])))


class TestApply:
    def test_swap(self, pickn):
        st = apply_step(pickn, T(pickn, "c(ok(0(end)))"), (), "c.ok")
        assert print_term(st.after) == "ok(S(0(end)))"

    def test_peel(self):
        peb = tm_to_trs(load_fixture("m_acc"))
        from irw.encode import pebble_trs
        sys = pebble_trs(load_fixture("m_acc"))
        st = apply_step(sys, T(sys, "peb(T)"), (), "peb.T")
        assert print_term(st.after) == "T"

    def test_one_sided_move(self):
        from irw.encode import nd_to_srs
        srs = nd_to_srs(load_fixture("nd_right"))
        st = apply_step(srs, T(srs, "q0(rec X . a(X))"), (), "q0.a.R")
        assert print_term(st.after) == "a(q0(rec X . a(X)))"

    def test_no_match_error(self, pickn):
        with pytest.raises(NoMatchError):
            apply_step(pickn, T(pickn, "pickn"), (), "c.ok")

    def test_one_walk_matches_two(self, dup_sys):
        # apply_step walks the path once; the reference is the composition
        # of two walks it replaced, subterm_at and then replace_at.
        rng = random.Random(2207)
        checked = 0
        for _ in range(400):
            t = _random_ground(rng, dup_sys.sig, rng.choice([0.0, 0.1, 0.3]))
            for pos, rid in find_redexes(dup_sys, t, 6):
                rule = dup_sys.rule(rid)
                bnd = match(rule.lhs, subterm_at(t, pos))
                want = replace_at(t, pos, instantiate(rule.rhs, bnd))
                for p in (pos, list(pos)):
                    st = apply_step(dup_sys, t, p, rid)
                    assert (st.position, st.rule_id, st.before) == (pos, rid, t)
                    assert canon_key(st.after) == canon_key(want)
                    assert bisim_equal(st.after, want)
                # Both share the rebuild, so check its shape apart: each
                # node on the path keeps its label and its other children.
                for j, i in enumerate(pos):
                    new, old = subterm_at(st.after, pos[:j]), subterm_at(t, pos[:j])
                    assert new.label == old.label
                    assert len(new.children) == len(old.children)
                    assert all(x is y for k, (x, y) in enumerate(
                        zip(new.children, old.children), 1) if k != i)
                checked += 1
        assert checked > 500

    def test_bad_step_refused(self, dup_sys):
        t = T(dup_sys, "f(g(b), h(c, e))")
        for pos in [(3,), (0,), (1, 2), (1, 1, 1), (2, 3)]:
            with pytest.raises(PositionError):
                apply_step(dup_sys, t, pos, "b")
        with pytest.raises(NoMatchError):
            apply_step(dup_sys, t, (), "f.dup")
        with pytest.raises(NoMatchError):
            apply_step(dup_sys, t, [2, 1], "e")
        assert print_term(apply_step(dup_sys, t, [1, 1], "b").after) == \
            "f(g(a), h(c, e))"


class TestNormalForms:
    def test_bot_is_nf(self, r_right):
        assert is_normal_form(r_right, T(r_right, "bot"))

    def test_rational_word_is_nf(self, r_right):
        assert is_normal_form(r_right, T(r_right, "rec X . a(X)"))

    def test_pickn_not_nf(self, pickn):
        assert not is_normal_form(pickn, T(pickn, "pickn"))

    def test_requires_ground(self, pickn):
        with pytest.raises(TrsError):
            is_normal_form(pickn, var("x"))


class TestStrategies:
    def test_lo_wraps_c(self, pickn):
        run = run_strategy(pickn, T(pickn, "pickn"), fuel=3)
        assert print_term(run.trace.final) == "c(c(c(pickn)))"
        assert run.fuel_exhausted

    def test_extension_root_steps(self):
        base = tm_to_trs(load_fixture("m_ext"))
        run = run_strategy(base, T(base, "q0(end, end)"), fuel=2)
        assert print_term(run.trace.final) == "q0(S(S(end)), end)"
        assert [s.position for s in run.trace.all_steps] == [(), ()]

    def test_normal_form_empty(self, pickn):
        run = run_strategy(pickn, T(pickn, "ok(S(0(end)))"), fuel=100)
        assert run.trace.all_steps == [] and not run.fuel_exhausted

    def test_seeded_random_deterministic(self, pickn):
        a = run_strategy(pickn, T(pickn, "pickn"), fuel=6, seed=3)
        b = run_strategy(pickn, T(pickn, "pickn"), fuel=6, seed=3)
        assert [s.rule_id for s in a.trace.all_steps] == \
            [s.rule_id for s in b.trace.all_steps]

    def test_self_loops_skipped(self):
        sys, start = build_S_prime(load_fixture("m_acc"))
        run = run_strategy(sys, start, fuel=5)
        assert all(s.rule_id != "run.loop" for s in run.trace.all_steps)


class TestCloseLimit:
    def test_xi_tower_closes(self, xi_only):
        run = run_strategy(xi_only, T(xi_only, "xi"), fuel=5)
        got = close_limit(run.trace.all_steps)
        assert got.closure is not None
        assert bisim_equal(got.closure.limit, T(xi_only, "rec X . a(X)"))
        prof = got.closure.certificate.min_depth_profile
        assert all(b > a for a, b in zip(prof, prof[1:]))

    def test_short_runs_give_no_closure(self, xi_only):
        # trs trace calls close_limit on every run, however short.
        run = run_strategy(xi_only, T(xi_only, "xi"), fuel=1)
        for steps in ([], run.trace.all_steps):
            assert close_limit(steps).closure is None

    def test_root_self_loop_refused(self):
        sig = Signature([Symbol("r", 1), Symbol("e", 0)])
        P = lambda s: parse_term(s, sig)
        loop = Trs(sig, [Rule("l", P("r(x)"), P("r(x)"))])
        steps = []
        cur = P("r(e)")
        for _ in range(6):
            steps.append(apply_step(loop, cur, (), "l"))
            cur = steps[-1].after
        got = close_limit(steps)
        assert got.closure is None
        assert got.diagnostics["min_depth"] == 0

    def test_head_drift_closes_to_tape(self):
        from irw.encode import nd_to_srs, phi
        from irw.omega import parse_word
        srs = nd_to_srs(load_fixture("nd_right"))
        w = parse_word("(a)^w")
        start = app(srs.sig.get("q0"), phi(w, srs.sig))
        run = run_strategy(srs, start, fuel=6)
        got = close_limit(run.trace.all_steps)
        assert got.closure is not None
        assert bisim_equal(got.closure.limit, phi(w, srs.sig))

    def test_pump_needs_reentry(self):
        # h(s(x)) -> k(h(x)) shifts h down one s at a time, with the same
        # rule at strictly increasing depth, but the subterm after one
        # cycle, h(s(s(s(a)))), is not the seed h(s(s(s(s(a))))): the run
        # ends when the s run does, so no limit may be certified.
        trs = parse_trs("sig h/1 s/1 k/1 a/0\nrule r: h(s(x)) -> k(h(x))\n")
        res = bounded_normalize(trs, T(trs, "h(s(s(s(s(a)))))"), fuel=100)
        assert res.found and res.trace.closures == 0
        assert print_term(res.normal_form) == "k(k(k(k(h(a)))))"

    def test_certificate_revalidates(self, xi_only):
        run = run_strategy(xi_only, T(xi_only, "xi"), fuel=5)
        got = close_limit(run.trace.all_steps)
        ep = Epoch(tuple(run.trace.all_steps), got.closure)
        assert validate_certificate(ep)

    def test_epoch_without_closure_is_valid(self, pickn):
        run = run_strategy(pickn, T(pickn, "pickn"), fuel=3)
        assert validate_certificate(run.trace.epochs[0])

    def test_hole_outside_the_term_refused(self):
        # Steps at (1,) to (1,1,1,1) chain on the constant a: the
        # positions pump with hole (1,), which a has no subterm at.
        trs = parse_trs("sig a/0\nrule r: a -> a\n")
        a = T(trs, "a")
        steps = tuple(Step((1,) * k, "r", a, a) for k in range(1, 5))
        cl = Closure(a, PumpCertificate(0, 1, (), (), "", ()))
        assert validate_certificate(Epoch(steps, cl)) is False

    def test_certificate_needs_a_chained_run(self, xi_only):
        # Three steps of the xi tower, then three genuine steps of another
        # term at the positions the pump predicts: the rule ids, positions
        # and the first cycle are a pump, but the epoch is no reduction.
        steps, cur = [], T(xi_only, "xi")
        for depth in range(6):
            if depth == 3:
                cur = T(xi_only, "b(b(b(xi)))")
            steps.append(apply_step(xi_only, cur, (1,) * depth, "xi.a"))
            cur = steps[-1].after
        with pytest.raises(TrsError):
            close_limit(steps)
        got = close_limit(steps[:3]).closure
        assert got is not None
        assert not validate_certificate(Epoch(tuple(steps), got))

    @pytest.mark.parametrize("rids, wrong", [
        # a pump of period 1 from step 1: from step 0 the rule ids differ
        (["xi.b", "xi.a", "xi.a", "xi.a", "xi.a"], {"cycle_start": 0}),
        # a pump of period 2 from step 0: periods 1 and 3 do not repeat
        (["xi.b", "xi.a"] * 3, {"cycle_length": 1}),
        (["xi.b", "xi.a"] * 3, {"cycle_length": 3}),
        # a pump of period 1 from step 0: a negative start names no step
        (["xi.a"] * 6, {"cycle_start": -2}),
        (["xi.a"] * 6, {"cycle_start": -4}),
        (["xi.a"] * 6, {"cycle_start": -6}),
    ])
    def test_wrong_cycle_refused(self, xi_only, rids, wrong):
        steps, cur = [], T(xi_only, "xi")
        for depth, rid in enumerate(rids):
            steps.append(apply_step(xi_only, cur, (1,) * depth, rid))
            cur = steps[-1].after
        got = close_limit(steps).closure
        assert got is not None
        assert validate_certificate(Epoch(tuple(steps), got))
        fields = {f: getattr(got.certificate, f) for f in PumpCertificate.__slots__}
        bad = Closure(got.limit, PumpCertificate(**{**fields, **wrong}))
        assert not validate_certificate(Epoch(tuple(steps), bad))


def _two_step_trace():
    """f(a, a) -> f(b, a) -> f(b, b) with r1, where r2 also rewrites a."""
    trs = parse_trs("sig f/2 a/0 b/0 c/0\nrule r1: a -> b\nrule r2: a -> c\n")
    s1 = apply_step(trs, T(trs, "f(a, a)"), (1,), "r1")
    s2 = apply_step(trs, s1.after, (2,), "r1")
    return trs, [s1, s2]


class TestReplay:
    def test_genuine_trace_replays(self):
        trs, steps = _two_step_trace()
        assert replay_trace(trs, Trace(steps[0].before, (Epoch(tuple(steps)),)))

    @pytest.mark.parametrize("k, field, text", [
        (1, "before", "f(c, a)"),   # the step still applies where it ran
        (1, "after", "f(b, c)"),    # the trace's last term
        (0, "position", (2,)),      # r1 rewrites the other a
        (0, "rule_id", "r2"),       # r2 rewrites the same a to c
    ])
    def test_tampered_step_refused(self, k, field, text):
        trs, steps = _two_step_trace()
        fields = {f: getattr(steps[k], f) for f in Step.__slots__}
        fields[field] = T(trs, text) if field in ("before", "after") else text
        steps[k] = Step(**fields)
        trace = Trace(T(trs, "f(a, a)"), (Epoch(tuple(steps)),))
        assert not replay_trace(trs, trace)

    @pytest.mark.parametrize("position, rid", [
        ((2,), "r1"),       # r1 does not match b
        ((1,), "nosuch"),   # no rule of that name
        ((3,), "r1"),       # no third argument
    ], ids=["no-match", "no-rule", "no-position"])
    def test_step_that_cannot_apply_refused(self, position, rid):
        # Refused with False, not raised: the step's own apply fails.
        trs = parse_trs("sig f/2 a/0 b/0\nrule r1: a -> b\n")
        start = T(trs, "f(a, b)")
        step = Step(position, rid, start, T(trs, "f(b, b)"))
        assert not replay_trace(trs, Trace(start, (Epoch((step,)),)))

    def test_closure_that_does_not_revalidate_refused(self, xi_only):
        run = run_strategy(xi_only, T(xi_only, "xi"), fuel=5)
        steps = tuple(run.trace.all_steps)
        good = close_limit(steps).closure
        assert replay_trace(xi_only, Trace(run.trace.start,
                                           (Epoch(steps, good),)))
        wrong = Closure(T(xi_only, "rec X . b(X)"), good.certificate)
        assert not replay_trace(xi_only, Trace(run.trace.start,
                                               (Epoch(steps, wrong),)))


class TestSearch:
    def test_normalize_pickn_one_step(self, pickn):
        res = bounded_normalize(pickn, T(pickn, "pickn"), fuel=10)
        assert res.found and print_term(res.normal_form) == "ok(0(end))"
        assert res.trace.total_steps == 1

    def test_normalize_found_is_nf(self, pickn, r_right):
        for trs, s in [(pickn, "c(c(pickn))"),
                       (r_right, "D1(rec X . a(X))"),
                       (r_right, "q0(q0(xi))")]:
            res = bounded_normalize(trs, T(trs, s), fuel=4000, max_epochs=3)
            assert res.found
            assert is_normal_form(trs, res.normal_form)
            assert replay_trace(trs, res.trace)

    def test_reach_shortest_seven(self, pickn):
        res = bounded_reach(pickn, T(pickn, "pickn"),
                            T(pickn, "ok(S(S(S(0(end)))))"), fuel=100)
        assert res.reached and res.trace.total_steps == 7

    def test_reach_reflexive(self, pickn):
        res = bounded_reach(pickn, T(pickn, "pickn"), T(pickn, "pickn"), fuel=5)
        assert res.reached and res.trace.total_steps == 0

    def test_reach_via_closures(self, xi_only):
        for word, steps in [("rec X . a(X)", 2), ("rec X . b(X)", 2),
                            ("rec X . a(b(X))", 4)]:
            res = bounded_reach(xi_only, T(xi_only, "xi"), T(xi_only, word),
                                fuel=3000, max_epochs=2)
            assert res.reached, word
            assert res.trace.closures == 1
            assert res.trace.total_steps == steps
            assert replay_trace(xi_only, res.trace)

    def test_sprime_infinite_pebble_exhausts_small_fuel(self):
        sys, start = build_S_prime(load_fixture("m_acc"))
        goal = parse_term("rec X . peb(X)", sys.sig)
        res = bounded_reach(sys, start, goal, fuel=60, max_epochs=2)
        assert not res.reached
        assert res.diagnostics["reason"] == "fuel"
        assert "stable_prefix_depth" in res.diagnostics

    def test_designated_term_normalizes(self, r_right):
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        assert res.found and print_term(res.normal_form) == "bot"
        assert res.trace.closures == 2
        assert len(res.trace.epochs) == 3
        assert replay_trace(r_right, res.trace)

    def test_bfs_agrees_with_enumeration(self, pickn):
        # Independent oracle: BFS over abstract states.  ("p", k) stands for
        # c^k(pickn); ("ok", k, j) for c^k(ok(S^j(0(end)))).  Depth cap 8
        # keeps both graphs finite and identical in extent.
        from collections import deque
        cap = 8
        dist = {("p", 0): 0}
        q = deque([("p", 0)])
        while q:
            state = q.popleft()
            if state[0] == "p":
                k = state[1]
                # both pickn rules rewrite at depth k, within bounds iff k <= cap
                succ = [("ok", k, 0), ("p", k + 1)] if k <= cap else []
            else:
                _, k, j = state
                succ = [("ok", k - 1, j + 1)] if k > 0 else []
            for nxt in succ:
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    q.append(nxt)

        def realize(state):
            if state[0] == "p":
                return "c(" * state[1] + "pickn" + ")" * state[1]
            _, k, j = state
            core = "ok(" + "S(" * j + "0(end)" + ")" * j + ")"
            return "c(" * k + core + ")" * k

        reach = step_reachability(pickn, T(pickn, "pickn"), fuel=2000,
                                  depth_bound=cap)
        got = {key: d for key, d in reach.dist.items()}
        want = {canon_key(T(pickn, realize(s))): d for s, d in dist.items()}
        assert got == want
        for n in range(4):
            assert want[canon_key(T(pickn, realize(("ok", 0, n))))] == 2 * n + 1


class TestCollectorPause:
    """The search runs with the cyclic collector paused and leaves it as
    it found it, whether it returns or raises."""

    @pytest.mark.parametrize("was_on", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("fuel", [10, -1], ids=["returns", "raises"])
    @pytest.mark.parametrize("search", ["normalize", "reach"])
    def test_collector_state(self, monkeypatch, pickn, search, fuel, was_on):
        import irw.rewrite
        seen = []
        real = irw.rewrite.find_redexes

        def watching(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(irw.rewrite, "find_redexes", watching)
        start, target = T(pickn, "pickn"), T(pickn, "ok(S(0(end)))")
        before = gc.isenabled()
        try:
            gc.enable() if was_on else gc.disable()
            if search == "normalize":
                call = lambda: bounded_normalize(pickn, start, fuel=fuel)
            else:
                call = lambda: bounded_reach(pickn, start, target, fuel=fuel)
            if fuel < 0:
                with pytest.raises(TrsError):
                    call()
            else:
                call()
                assert seen and not any(seen)
            assert gc.isenabled() == was_on
        finally:
            gc.enable() if before else gc.disable()


class TestFoundReplays:
    """Every found normal form and every reached target of the search,
    on a small seeded corpus, replays step by step; a reached trace also
    ends bisimilar to its target, which rechecks the id-based goal test
    by the independent pairwise walk."""

    def test_found_and_reached_replay(self, pickn, r_right, xi_only):
        rng = random.Random(4)
        unary = ["a", "b", "q0", "D1", "D2"]
        leaves = ["xi", "bot", "rec X . a(X)", "a(rec X . b(a(X)))"]
        corpus = []
        for _ in range(12):
            # Two walkers over xi are the slow tail of criterion 6.
            labels = rng.sample(unary, rng.randint(0, 2))
            leaf = rng.choice(leaves)
            if leaf == "xi" and {"D1", "D2"} <= set(labels):
                labels = labels[:1]
            corpus.append((r_right, "(".join(labels + [leaf])
                           + ")" * len(labels)))
        for _ in range(4):
            k = rng.randint(0, 3)
            corpus.append((pickn, "c(" * k + "pickn" + ")" * k))
        found = 0
        for trs, text in corpus:
            res = bounded_normalize(trs, T(trs, text), fuel=4000,
                                    max_epochs=3)
            if res.found:
                found += 1
                assert replay_trace(trs, res.trace), text
                assert is_normal_form(trs, res.normal_form), text
        assert found >= len(corpus) // 2
        targets = [(xi_only, "xi", f"rec X . {w}X" + ")" * w.count("("))
                   for w in ("a(", "b(a(", "a(a(b(")]
        for _ in range(4):
            k, j = rng.randint(0, 2), rng.randint(0, 3)
            targets.append((pickn, "c(" * k + "pickn" + ")" * k,
                            "ok(" + "S(" * (j + k) + "0(end)"
                            + ")" * (j + k) + ")"))
        for trs, src, dst in targets:
            res = bounded_reach(trs, T(trs, src), T(trs, dst), fuel=3000,
                                max_epochs=2)
            assert res.reached, dst
            assert replay_trace(trs, res.trace), dst
            assert bisim_equal(res.trace.final, T(trs, dst)), dst


class TestTerminatingAgreement:
    def test_normalize_matches_exhaustive_enumeration(self):
        # halting machine runs: the search and the plain reduction graph
        # agree on the unique normal form
        from irw.encode import encode_config
        from irw.laws import gen_det_config
        from irw.turing import tm_final
        import random
        m = load_fixture("m_acc")
        trs = tm_to_trs(m)
        rng = random.Random(21)
        for _ in range(15):
            c = gen_det_config(rng, m)
            out = tm_final(m, c, 200)
            assert out.kind == "final"
            start = encode_config(m, c)
            res = bounded_normalize(trs, start, fuel=2000, max_epochs=1)
            assert res.found
            reach = step_reachability(trs, start, fuel=2000)
            nfs = [t for t in reach.terms.values() if is_normal_form(trs, t)]
            assert len(nfs) == 1
            assert bisim_equal(res.normal_form, nfs[0])


class TestApproximant:
    def test_stable_prefix(self, xi_only):
        run = run_strategy(xi_only, T(xi_only, "xi"), fuel=5)
        a = limit_approximant(run.trace, 4)
        assert a.stable and print_term(a.prefix) == "a(a(a(a(cut))))"
        b = limit_approximant(run.trace, 5)
        assert not b.stable and b.witness == 4

    def test_root_loop_unstable(self):
        base = tm_to_trs(load_fixture("m_ext"))
        run = run_strategy(base, T(base, "q0(end, end)"), fuel=6)
        a = limit_approximant(run.trace, 1)
        assert not a.stable and a.witness == 5

    def test_empty_trace_stable(self, pickn):
        run = run_strategy(pickn, T(pickn, "ok(0(end))"), fuel=5)
        assert limit_approximant(run.trace, 3).stable

    def test_stable_prefix_matches_per_depth_loop(self, pickn):
        def oracle(trace, max_depth):
            depth, prefix = -1, None
            for d in range(0, max_depth + 1):
                a = limit_approximant(trace, d)
                if not a.stable:
                    break
                depth, prefix = d, a.prefix
            return depth, prefix

        base = tm_to_trs(load_fixture("m_ext"))
        sprime, start = build_S_prime(load_fixture("m_acc"))
        traces = [
            run_strategy(pickn, T(pickn, "ok(0(end))"), fuel=5).trace,
            run_strategy(base, T(base, "q0(end, end)"), fuel=6).trace,
            greedy_cycle_run(sprime, start, 60),
        ]
        assert not traces[0].all_steps
        assert traces[1].all_steps[-1].depth == 0
        assert close_limit(traces[2].all_steps).closure is not None
        for trace in traces:
            for bound in (-1, 0, 1, 5, 32):
                depth, prefix = stable_prefix(trace, bound)
                want_depth, want_prefix = oracle(trace, bound)
                assert depth == want_depth
                assert (prefix is None) == (want_prefix is None)
                if prefix is not None:
                    assert print_term(prefix) == print_term(want_prefix)


class TestTrsFiles:
    def test_round_trip(self, pickn):
        text = format_trs(pickn, header=["construction: pickn", "rules: 3"])
        back = parse_trs(text)
        assert [r.rid for r in back.rules] == [r.rid for r in pickn.rules]
        for a, b in zip(back.rules, pickn.rules):
            assert bisim_equal(a.lhs, b.lhs) and bisim_equal(a.rhs, b.rhs)
        assert back.construction == "pickn"

    def test_bad_line(self):
        with pytest.raises(Exception):
            parse_trs("rule broken pickn -> ok\n")

    def test_sig_comment_declares_nothing(self):
        trs = parse_trs("sig f/1 # was g/2\nrule r: f(x) -> x\n")
        assert [repr(s) for s in trs.sig] == ["f/1"]

    def test_deep_sigless_rule(self):
        n = 10 ** 4
        trs = parse_trs(f"sig S/1\nrule r: {'S(' * n}x{')' * n} -> x\n")
        assert [repr(s) for s in trs.sig] == ["S/1"]
        node, depth = trs.rule("r").lhs, 0
        while node.children:
            node, depth = node.children[0], depth + 1
        assert (node.label, depth) == ("x", n)

    def test_comment_adds_no_symbol(self):
        trs = parse_trs("sig f/1\nrule r: f(x) -> x  # see note (old)\n")
        assert [repr(s) for s in trs.sig] == ["f/1"]

    def test_render_trace_ordinals(self, r_right):
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        out = render_trace(res.trace)
        assert "omega-limit:" in out
        assert "w+0" in out or "w*2+0" in out


class TestPumpStress:
    def _extend_and_check(self, trs, steps, closure, extra_cycles=3):
        # A certificate predicts the future of the reduction: repeating the
        # cycle pattern (same rules, positions pushed down by the offset)
        # must stay applicable, and the endpoints must agree with the
        # claimed limit on ever deeper prefixes.
        cert = closure.certificate
        hole, offset, L = cert.hole, cert.offset, cert.cycle_length
        seq = list(steps)
        cur = seq[-1].after
        for _ in range(extra_cycles * L):
            prev = seq[len(seq) - L]
            pos = hole + offset + prev.position[len(hole):]
            st = apply_step(trs, cur, pos, prev.rule_id)
            seq.append(st)
            cur = st.after
        from irw.terms import truncate_prefix
        dmin = min(s.depth for s in seq[-L:])
        assert dmin > min(s.depth for s in steps[-L:])
        assert canon_key(truncate_prefix(cur, dmin)) == \
            canon_key(truncate_prefix(closure.limit, dmin))

    def test_certified_pumps_predict_reduction(self, xi_only):
        for trs, steps in _pump_runs(xi_only):
            att = close_limit(steps)
            assert att.closure is not None
            _check_implied_facts(steps, att.closure)
            self._extend_and_check(trs, steps, att.closure)

    def test_search_closures_predict_reduction(self, r_right):
        # closures discovered inside the bounded search satisfy the same
        # prediction property
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        assert res.found
        checked = 0
        for ep in res.trace.epochs:
            if ep.closure is not None:
                _check_implied_facts(list(ep.steps), ep.closure)
                self._extend_and_check(r_right, list(ep.steps), ep.closure)
                checked += 1
        assert checked == 2


def _pump_runs(xi_only):
    """Runs that close: the xi tower, nd_right's SRS on two words, and a
    run whose first position is not its least and whose last position is
    not its greatest."""
    from irw.encode import nd_to_srs, phi
    from irw.omega import parse_word
    cases = []
    run = run_strategy(xi_only, parse_term("xi", xi_only.sig), fuel=6)
    cases.append((xi_only, run.trace.all_steps))
    srs = nd_to_srs(load_fixture("nd_right"))
    for word in ["(a)^w", "ab(ba)^w"]:
        w = parse_word(word)
        start = parse_term(f"q0({print_term(phi(w, srs.sig))})", srs.sig)
        run = run_strategy(srs, start, fuel=8)
        cases.append((srs, run.trace.all_steps))
    # Per cycle, c -> d on spine node k's right child, then the identity
    # step at spine node k + 2: positions (2), (1, 1), (1, 2), (1, 1, 1),
    # ... with hole () and offset (1,).
    sig = Signature([Symbol("p", 2), Symbol("c", 0), Symbol("d", 0)])
    P = lambda s: parse_term(s, sig)
    spine = Trs(sig, [Rule("c", P("c"), P("d")),
                      Rule("p", P("p(x, y)"), P("p(x, y)"))])
    steps, cur = [], P("rec X . p(X, c)")
    for k in range(3):
        for pos, rid in (((1,) * k + (2,), "c"), ((1,) * (k + 2), "p")):
            steps.append(apply_step(spine, cur, pos, rid))
            cur = steps[-1].after
    cases.append((spine, steps))
    return cases


# --- the pump's hole against the per-step fold ------------------------------

def _fold_try_pump(steps, i, length):
    """_try_pump as it was when it found the hole by folding
    _common_prefix over the positions one step at a time; the reference
    for the least-and-greatest shortcut."""
    from irw.rewrite import PumpCertificate, _common_prefix
    from irw.terms import cyclify
    n = len(steps)
    if i + 2 * length > n:
        return None
    hole = steps[i].position
    for s in steps[i:]:
        hole = hole[:len(_common_prefix(hole, s.position))]
    rel = [s.position[len(hole):] for s in steps[i:]]
    base, shifted = rel[0], rel[length]
    if len(shifted) <= len(base) or shifted[len(shifted) - len(base):] != base:
        return None
    offset = shifted[:len(shifted) - len(base)]
    if not offset:
        return None
    for j in range(len(rel) - length):
        if steps[i + j + length].rule_id != steps[i + j].rule_id:
            return None
        if rel[j + length] != offset + rel[j]:
            return None
    t0 = steps[i].before
    t1 = steps[i + length].before
    try:
        seed = subterm_at(t0, hole)
        wrapped = subterm_at(t1, hole)
        reentry = subterm_at(wrapped, offset)
    except PositionError:
        return None
    if not bisim_equal(reentry, seed):
        return None
    first = min(s.depth for s in steps[i:i + length])
    profile = [first + k * len(offset) for k in range((n - i) // length)]
    limit = replace_at(t0, hole, cyclify(wrapped, offset))
    cert = PumpCertificate(
        cycle_start=i, cycle_length=length, hole=hole, offset=offset,
        context_growth="", min_depth_profile=tuple(profile))
    return Closure(limit, cert)


def _pump_fields(closure):
    if closure is None:
        return None
    c = closure.certificate
    return (c.cycle_start, c.cycle_length, c.hole, c.offset,
            c.min_depth_profile, canon_key(closure.limit))


@st.composite
def _positions(draw):
    """Positions sharing a drawn prefix, with the empty position and a
    proper prefix of a drawn position mixed in when the draw says so."""
    digit = st.integers(0, 3)
    prefix = tuple(draw(st.lists(digit, max_size=3)))
    ps = [prefix + tuple(s) for s in
          draw(st.lists(st.lists(digit, max_size=4), min_size=1, max_size=8))]
    if draw(st.booleans()):
        ps.append(())
    if draw(st.booleans()):
        p = draw(st.sampled_from(ps))
        ps.append(p[:draw(st.integers(0, len(p)))])
    return draw(st.permutations(ps))


class TestPumpHole:
    @settings(max_examples=200, deadline=None)
    @given(_positions())
    @example([()])
    @example([(1, 2), (1,), (1, 2, 3)])
    @example([(2, 1), (), (2,)])
    @example([(1, 3), (1, 2, 4), (1, 2)])
    def test_least_and_greatest_share_the_common_prefix(self, ps):
        from irw.rewrite import _common_prefix
        assert _common_prefix(min(ps), max(ps)) == \
            functools.reduce(_common_prefix, ps)

    def test_same_closure_as_the_fold(self, xi_only, r_right):
        from irw.rewrite import _try_pump
        runs = [steps for _, steps in _pump_runs(xi_only)]
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        runs += [list(ep.steps) for ep in res.trace.epochs]
        closed = 0
        for steps in runs:
            n = len(steps)
            for i in range(n - 1):
                for length in range(1, (n - i) // 2 + 1):
                    got = _try_pump(steps, i, length)
                    assert _pump_fields(got) == \
                        _pump_fields(_fold_try_pump(steps, i, length))
                    closed += got is not None
        assert closed


# --- the redex table against the plain walk --------------------------------

def _walk_redexes(trs, t, depth_bound):
    """The plain walk find_redexes made before the redex table: every
    position of the unfolding down to the bound, every rule at every
    node."""
    out = []
    stack = [((), t)]
    while stack:
        pos, node = stack.pop()
        for r in trs.rules:
            if r.lhs.label == node.label and match(r.lhs, node) is not None:
                out.append((pos, r.rid))
        if len(pos) < depth_bound:
            for i in range(len(node.children), 0, -1):
                stack.append((pos + (i,), node.children[i - 1]))
    return out


def _has_redex_node(trs, t):
    """True iff some rule matches at some distinct node of t's graph."""
    seen, stack = set(), [t]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if any(match(r.lhs, n) is not None for r in trs.rules):
            return True
        stack.extend(n.children)
    return False


@pytest.fixture(scope="module")
def dup_sys():
    # f.dup is non-linear, e keeps runs going, and h and c head no rule,
    # so some subterms hold no redex and the table may prune them.
    sig = Signature([Symbol("f", 2), Symbol("g", 1), Symbol("h", 2),
                     Symbol("a", 0), Symbol("b", 0), Symbol("c", 0),
                     Symbol("e", 0)])
    P = lambda s: parse_term(s, sig)
    return Trs(sig, [Rule("f.dup", P("f(x, x)"), P("g(x)")),
                     Rule("f.a", P("f(a, y)"), P("y")),
                     Rule("g.g", P("g(g(x))"), P("h(x, x)")),
                     Rule("b", P("b"), P("a")),
                     Rule("e", P("e"), P("f(g(e), h(c, e))"))])


def _random_ground(rng, sig, back):
    """The root of a random ground term graph: forward edges share
    subterms, edges to an earlier node or itself (probability `back`)
    tie cycles."""
    syms = [sig.get(n) for n in ("f", "g", "h", "h", "a", "b", "c", "c", "e")]
    n = rng.randint(1, 14)
    holes = [Term(None, ()) for _ in range(n)]
    for i, node in enumerate(holes):
        sym = rng.choice(syms) if i + 1 < n else sig.get(rng.choice("abce"))
        kids = tuple(
            holes[rng.randrange(i + 1, n)]
            if i + 1 < n and rng.random() >= back
            else holes[rng.randrange(i + 1)]
            for _ in range(sym.arity))
        node._patch(sym, kids)
    return holes[0]


def _cold(trs):
    """The same rules as trs, with an empty redex table."""
    return Trs(trs.sig, trs.rules)


class TestRedexIndex:
    def test_matches_plain_walk(self, dup_sys):
        # The module fixture's table stays warm across the test; every
        # question is also asked of a cold system.
        rng = random.Random(1618)
        kinds = set()
        for _ in range(1500):
            t = _random_ground(rng, dup_sys.sig, rng.choice([0.0, 0.1, 0.3]))
            for d in range(9):
                want = _walk_redexes(dup_sys, t, d)
                assert find_redexes(_cold(dup_sys), t, d) == want
                assert find_redexes(dup_sys, t, d) == want
                kinds.add((d, bool(want)))
            nf = not _has_redex_node(dup_sys, t)
            assert is_normal_form(_cold(dup_sys), t) == nf
            assert is_normal_form(dup_sys, t) == nf
            kinds.add(nf)
        # Both answers occur at every bound, and both normality verdicts.
        assert kinds >= {(d, b) for d in range(9) for b in (True, False)}
        assert {True, False} <= kinds
        # Chains 50-200 long, mostly of s, which heads no rule, so that
        # find_redexes walks through them down to the shallowest redex;
        # now and then a g (a redex over a g) or a binary node whose other
        # child is small.  Below: a random graph or a cyclic unary tail.
        # The bounds fall below, at and above the shallowest redex, and
        # in the middle of the chain.
        sig = dup_sys.sig.merged(Signature([Symbol("s", 1)]))
        chained = Trs(sig, dup_sys.rules)
        sides = [parse_term(x, sig) for x in ("a", "b", "c", "e", "g(b)")]
        kinds = set()
        for _ in range(80):
            if rng.random() < 0.5:
                t = _random_ground(rng, sig, rng.choice([0.0, 0.3]))
            else:
                t = sig.unary_cycle(tuple(rng.choice("ssg")
                                          for _ in range(rng.randint(1, 4))))
            n = rng.randint(50, 200)
            binary = False
            for _ in range(n):
                r = rng.random()
                if r < 0.02:
                    side = rng.choice(sides)
                    kids = (side, t) if rng.random() < 0.5 else (t, side)
                    t = Term(sig.get(rng.choice("fh")), kids)
                    binary = True
                else:
                    t = app(sig.get("g" if r < 0.08 else "s"), t)
            full = _walk_redexes(chained, t, n + 4)
            first = min((len(p) for p, _ in full), default=n + 4)
            for d in {first - 1, first, first + 1, rng.randrange(n), n + 4}:
                if d >= 0:
                    want = _walk_redexes(chained, t, d)
                    assert find_redexes(_cold(chained), t, d) == want
                    assert find_redexes(chained, t, d) == want
            kinds.add((first > 20, binary))
        assert kinds == {(a, b) for a in (True, False) for b in (True, False)}

    def test_shared_index_along_a_run(self, dup_sys):
        rng = random.Random(31)
        for k in range(120):
            t = _random_ground(rng, dup_sys.sig, rng.choice([0.0, 0.2]))
            run = run_strategy(dup_sys, t, fuel=20, depth_bound=6, seed=k)
            terms = [t] + [s.after for s in run.trace.all_steps]
            for u in terms:
                for d in (0, 2, 6):
                    assert find_redexes(dup_sys, u, d) == \
                        find_redexes(_cold(dup_sys), u, d) == \
                        _walk_redexes(dup_sys, u, d)
                assert is_normal_form(dup_sys, u) == \
                    is_normal_form(_cold(dup_sys), u)

    def test_tables_are_per_system(self):
        # The full system's warm table must not leak into the system
        # without the self-loop, although both meet the same ids.
        sys, start = build_S_prime(load_fixture("m_acc"))
        assert ((), "run.loop") in find_redexes(sys, start, 6)
        sub = sys.without("run.loop")
        got = find_redexes(sub, start, 6)
        assert all(rid != "run.loop" for _, rid in got)
        assert got == _walk_redexes(sub, start, 6)

    def test_bisimilar_copy_reuses_the_table(self, dup_sys, monkeypatch):
        # Keyed by canonical id, not by node: a copy built from fresh
        # nodes, with its cycle unrolled once, matches no rule again.
        trs = _cold(dup_sys)
        calls = []
        real = Trs.rules_at
        monkeypatch.setattr(Trs, "rules_at",
                            lambda self, n: calls.append(n) or real(self, n))
        t = T(trs, "h(rec X . f(g(X), h(c, e)), b)")
        want = find_redexes(trs, t, 8)
        assert want and calls
        del calls[:]
        copy = T(trs, "h(f(g(rec X . f(g(X), h(c, e))), h(c, e)), b)")
        assert find_redexes(trs, copy, 8) == want
        assert not is_normal_form(trs, copy)
        assert calls == []
        # Above a known term only the new id is matched.
        wrapped = T(trs, "g(h(f(g(rec X . f(g(X), h(c, e))), h(c, e)), b))")
        assert find_redexes(trs, wrapped, 9) == \
            [((1,) + pos, rid) for pos, rid in want]
        assert len(calls) == 1

    def test_shared_between_threads(self, dup_sys):
        # Four threads ask about the same terms, each built from its own
        # nodes, and share one cold system per term, so every term is a
        # full fill.  Thread switches are forced as often as the
        # interpreter allows; every answer must equal the plain walk's.
        import sys
        import threading
        systems = [_cold(dup_sys) for _ in range(1000)]
        together = threading.Barrier(4, timeout=60)
        errors = []

        def ask(trs, t):
            return [find_redexes(trs, t, d) for d in (6, 3, 0)], \
                is_normal_form(trs, t)

        def oracle(t):
            return [_walk_redexes(dup_sys, t, d) for d in (6, 3, 0)], \
                not _has_redex_node(dup_sys, t)

        def worker(me):
            rng = random.Random(2718)
            try:
                for k, trs in enumerate(systems):
                    t = _random_ground(rng, dup_sys.sig,
                                       rng.choice([0.0, 0.1, 0.3]))
                    together.wait()
                    # Stagger the threads by 0-3 oracle runs, so that some
                    # ask while another's fill is being published.
                    for _ in range((me + k) % 4):
                        oracle(t)
                    if ask(trs, t) != oracle(t):
                        errors.append(print_term(t))
            except Exception as e:
                errors.append(repr(e))
                together.abort()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(me,))
                       for me in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


# --- the search's pump pre-filter against the unfiltered suffix loop -------

def _suffix_pump(steps):
    """The search's suffix pump check without the rule-period filter: try
    every period whose second iteration ends at the last step."""
    from irw.rewrite import _try_pump
    n = len(steps)
    for length in range(1, n // 2 + 1):
        got = _try_pump(steps, n - 2 * length, length)
        if got is not None:
            return got
    return None


def _filtered_suffix_pump(steps):
    """The search's check: the periods _pump_periods keeps for the last
    step's rule id, from the rule ids of the steps before it."""
    from irw.rewrite import _pump_periods, _try_pump
    n = len(steps)
    periods = _pump_periods([s.rule_id for s in steps[:-1]])
    for length in periods.get(steps[-1].rule_id, ()):
        got = _try_pump(steps, n - 2 * length, length)
        if got is not None:
            return got
    return None


class TestPumpFilter:
    def _runs(self, xi_only, r_right):
        from irw.encode import nd_to_srs, phi
        from irw.omega import parse_word
        runs = [run_strategy(xi_only, T(xi_only, "xi"), fuel=6).trace.all_steps]
        srs = nd_to_srs(load_fixture("nd_right"))
        for word in ["(a)^w", "ab(ba)^w"]:
            start = T(srs, f"q0({print_term(phi(parse_word(word), srs.sig))})")
            runs.append(run_strategy(srs, start, fuel=8).trace.all_steps)
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        runs += [list(ep.steps) for ep in res.trace.epochs]
        for fx in ("nd_right", "nd_pong"):
            m = load_fixture(fx)
            srs = nd_to_srs(m)
            for seed, word in enumerate(["(a)^w", "ab(ba)^w", "(ab)^w",
                                         "b(ba)^w", "(_a)^w", "a(b)^w"]):
                w = parse_word(word, m.alphabet)
                start = T(srs, f"q0({print_term(phi(w, srs.sig))})")
                runs.append(run_strategy(srs, start, fuel=24,
                                         seed=seed).trace.all_steps)
        return runs

    def test_matches_unfiltered_suffix_loop(self, xi_only, r_right):
        closed = 0
        for run in self._runs(xi_only, r_right):
            for k in range(2, len(run) + 1):
                prefix = run[:k]
                full = close_limit(prefix).closure
                if full is not None:
                    _check_implied_facts(prefix, full)
                want = _suffix_pump(prefix)
                got = _filtered_suffix_pump(prefix)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                closed += 1
                _check_implied_facts(prefix, got)
                gc, wc = got.certificate, want.certificate
                assert (gc.cycle_start, gc.cycle_length, gc.hole, gc.offset) == \
                    (wc.cycle_start, wc.cycle_length, wc.hole, wc.offset)
                assert bisim_equal(got.limit, want.limit)
        assert closed >= 10

    def test_periods_match_rule_id_squares(self):
        # Period L is kept for rule id r iff the rule ids with r appended
        # end in a square of half-length L.
        from irw.rewrite import _pump_periods
        rng = random.Random(77)
        for _ in range(3000):
            rids = [rng.choice("ab" if rng.random() < 0.7 else "abc")
                    for _ in range(rng.randint(0, 14))]
            table = _pump_periods(rids)
            for r in "abc":
                full = rids + [r]
                n = len(full)
                want = [L for L in range(1, n // 2 + 1)
                        if full[n - L:] == full[n - 2 * L:n - L]]
                assert table.get(r, []) == want


# --- the search against the eager loop it replaced -------------------------

@dataclasses.dataclass
class _EagerNode:
    term: object
    steps: int
    closures: int
    parent: object
    via_step: object
    via_closure: object
    epoch_len: int


def _eager_epoch_steps(node):
    out = []
    cur = node
    while cur is not None and cur.via_step is not None:
        out.append(cur.via_step)
        cur = cur.parent
        if len(out) > 512:
            return []
    out.reverse()
    return out


def _eager_trace(node, start):
    from irw.rewrite import Trace
    moves = []
    cur = node
    while cur is not None and (cur.via_step or cur.via_closure):
        moves.append((cur.via_step, cur.via_closure))
        cur = cur.parent
    moves.reverse()
    epochs, pending = [], []
    for st, cl in moves:
        if st is not None:
            pending.append(st)
        else:
            epochs.append(Epoch(tuple(pending), cl))
            pending = []
    epochs.append(Epoch(tuple(pending)))
    if len(epochs) > 1 and not epochs[-1].steps:
        epochs = epochs[:-1]
    return Trace(start, tuple(epochs))


def _eager_suffix_close(hist):
    """Every period whose last L rule ids repeat, each pump printed with
    its context when found."""
    from irw.rewrite import _try_pump
    from irw.terms import replace_at, subterm_at
    n = len(hist)
    rids = [s.rule_id for s in hist]
    for length in range(1, n // 2 + 1):
        if rids[-1] != rids[-1 - length] or \
                rids[n - length:] != rids[n - 2 * length:n - length]:
            continue
        got = _try_pump(hist, n - 2 * length, length)
        if got is not None:
            c = got.certificate
            wrapped = subterm_at(hist[c.cycle_start + c.cycle_length].before,
                                 c.hole)
            ctx = print_term(replace_at(wrapped, c.offset, var("HOLE")))
            return Closure(got.limit, PumpCertificate(
                c.cycle_start, c.cycle_length, c.hole, c.offset, ctx,
                c.min_depth_profile))
    return None


def eager_search(trs, start, goal, fuel, max_epochs, depth_bound):
    """The search loop before successors were made on demand: every child
    is applied and pump-checked when its parent is expanded.  Returns
    (trace, final term, diagnostics, popped step children, applied steps)."""
    import heapq
    root = _EagerNode(start, 0, 0, None, None, None, 0)
    heap = [(0, 0, 0, root)]
    seq, done, expansions, deepest, pending = 1, set(), 0, root, None
    popped = applied = 0
    found = None
    while heap and expansions < fuel:
        node = heapq.heappop(heap)[3]
        if pending is not None and node.steps >= pending.steps:
            found = pending
            break
        popped += node.via_step is not None
        key = canon_key(node.term)
        if key in done:
            continue
        done.add(key)
        expansions += 1
        if node.steps > deepest.steps:
            deepest = node
        if goal(node.term, key):
            found = node
            break
        for pos, rid in find_redexes(trs, node.term, depth_bound):
            st = apply_step(trs, node.term, pos, rid)
            applied += 1
            child = _EagerNode(st.after, node.steps + 1, node.closures, node,
                               st, None, node.epoch_len + 1)
            heapq.heappush(heap, (child.steps, child.closures, seq, child))
            seq += 1
            if child.closures < max_epochs - 1 and child.epoch_len >= 2:
                hist = _eager_epoch_steps(child)
                cl = _eager_suffix_close(hist) if len(hist) >= 2 else None
                if cl is not None:
                    lk = canon_key(cl.limit)
                    gchild = _EagerNode(cl.limit, child.steps,
                                        child.closures + 1, child, None, cl, 0)
                    if lk not in done and goal(cl.limit, lk):
                        if pending is None or (gchild.steps, gchild.closures) \
                                < (pending.steps, pending.closures):
                            pending = gchild
                    else:
                        heapq.heappush(heap, (gchild.steps, gchild.closures,
                                              seq, gchild))
                        seq += 1
    if found is None:
        found = pending
    if found is not None:
        return _eager_trace(found, start), found.term, {}, popped, applied
    diag = {"reason": "fuel" if heap else "frontier",
            "expansions": expansions, "distinct_terms": len(done),
            "max_steps": deepest.steps}
    diag["stable_prefix_depth"], prefix = stable_prefix(
        _eager_trace(deepest, start), depth_bound)
    diag["stable_prefix"] = print_term(prefix) if prefix is not None else None
    return None, None, diag, popped, applied


def _trace_fingerprint(trace):
    if trace is None:
        return None
    out = [print_term(trace.start)]
    for ep in trace.epochs:
        out.append([(s.position, s.rule_id) for s in ep.steps])
        if ep.closure is not None:
            out.append((canon_key(ep.closure.limit),
                        tuple(getattr(ep.closure.certificate, f)
                              for f in PumpCertificate.__slots__)))
    return out


def _normalize_goal(trs):
    return lambda term, key: is_normal_form(trs, term)


def _reach_goal(target):
    tkey = canon_key(target)
    return lambda term, key: key == tkey


class TestSearchOracle:
    def _check(self, trs, t, fuel, epochs, depth=32, target=None):
        if target is None:
            res = bounded_normalize(trs, t, fuel=fuel, max_epochs=epochs,
                                    depth_bound=depth)
            found, nf = res.found, res.normal_form
            goal = _normalize_goal(trs)
        else:
            res = bounded_reach(trs, t, target, fuel=fuel, max_epochs=epochs,
                                depth_bound=depth)
            found, nf = res.reached, res.trace and res.trace.final
            goal = _reach_goal(target)
        trace, final, diag, _, _ = eager_search(trs, t, goal, fuel, epochs, depth)
        assert found == (trace is not None)
        assert _trace_fingerprint(res.trace) == _trace_fingerprint(trace)
        if found:
            assert canon_key(nf) == canon_key(final)
        assert res.diagnostics == diag
        return res

    def test_seeded_random_systems(self, dup_sys):
        from irw.encode import nd_to_srs, phi
        from irw.laws import gen_nd_machine
        from irw.omega import parse_word
        rng = random.Random(2024)
        kinds = set()
        for k in range(24):
            m = gen_nd_machine(rng)
            srs = nd_to_srs(m)
            word = rng.choice(["(a)^w", "ab(ba)^w", "(ab)^w", "b(a)^w"])
            w = parse_word(word, m.alphabet)
            start = app(srs.sig.get(m.initial), phi(w, srs.sig))
            res = self._check(srs, start, rng.choice([50, 300]), rng.choice([2, 3]))
            kinds.add((res.found, bool(res.found and res.trace.closures)))
        for k in range(60):
            t = _random_ground(rng, dup_sys.sig, rng.choice([0.0, 0.2]))
            res = self._check(dup_sys, t, rng.choice([5, 40]), rng.choice([1, 2, 3]),
                              depth=rng.choice([3, 8]))
            kinds.add((res.found, bool(res.found and res.trace.closures)))
            if not res.found:
                kinds.add(res.diagnostics["reason"])
        assert {(True, True), (True, False), (False, False),
                "fuel", "frontier"} <= kinds

    def test_pickn_reach(self, pickn):
        for n in range(3, 9):
            target = T(pickn, "ok(" + "S(" * n + "0(end)" + ")" * n + ")")
            res = self._check(pickn, T(pickn, "pickn"), 10_000, 4, target=target)
            assert res.reached and res.trace.total_steps == 2 * n + 1

    def test_norm_probe_corpus_slice(self, r_right):
        from irw.encode import phi
        from irw.laws import _depth3_corpus, _designated_term, _fixture_words
        right = load_fixture("nd_right")
        zs = [phi(w, r_right.sig) for w in _fixture_words(right)]
        corpus = _depth3_corpus(r_right, right, zs)
        picked = corpus[3::37] + [T(r_right, "D1(D2(xi))"),
                                 T(r_right, "D2(D1(xi))"),
                                 _designated_term(r_right, zs[0])]
        closures = 0
        for t in picked:
            res = self._check(r_right, t, 10_000, 3)
            assert res.found
            closures += res.trace.closures
        assert closures > 0

    @staticmethod
    def _flushes(monkeypatch):
        """Record each flush of the search's untried pump candidates as
        (their step count, whether the loop is still running, whether a
        goal limit is pending after it).  The second list keeps the
        untried list itself: after the search it holds what was never
        tried."""
        import irw.rewrite
        real = irw.rewrite._try_untried
        flushes, lists = [], []

        def recording(untried, heap, done, goal, pending):
            steps = untried[0][0].steps
            in_loop = bool(heap) and heap[0][0] >= steps
            lists.append(untried)
            pending = real(untried, heap, done, goal, pending)
            flushes.append((steps, in_loop, pending is not None))
            return pending

        monkeypatch.setattr(irw.rewrite, "_try_untried", recording)
        return flushes, lists

    _TWO_WAYS = parse_trs("sig c/2 f/0 a/1 b/0 e/1\n"
                          "rule r: f -> a(f)\nrule s: f -> b\n"
                          "rule t: f -> e(f)\n")

    def test_goal_popped_inside_a_level(self, monkeypatch):
        # c(b, b) is popped inside level 2, after the one flush: the pump
        # candidates level 2 pushed to level 3 are never tried.
        trs = self._TWO_WAYS.without("t")
        flushes, lists = self._flushes(monkeypatch)
        res = self._check(trs, T(trs, "c(f, f)"), 1000, 3)
        assert res.found and print_term(res.normal_form) == "c(b, b)"
        assert flushes == [(2, True, False)]
        assert lists[0] and all(c.steps == 3 for c, *_ in lists[0])

    def test_goal_limit_pending_at_a_level_boundary(self, monkeypatch):
        # Both level-1 nodes are expanded; the flush before level 2 finds
        # the goal limit rec X . a(X), and the next pop returns it.
        trs = self._TWO_WAYS.without("s")
        flushes, _ = self._flushes(monkeypatch)
        res = self._check(trs, T(trs, "f"), 1000, 3)
        assert res.found and res.trace.closures == 1
        assert flushes == [(2, True, True)]

    def test_goal_limit_pending_when_fuel_ends(self, monkeypatch):
        # Fuel ends after a(f) is expanded, with e(f) still in level 1:
        # only the flush after the loop tries a(a(f)), whose limit is the
        # goal the search returns.
        trs = self._TWO_WAYS.without("s")
        flushes, _ = self._flushes(monkeypatch)
        res = self._check(trs, T(trs, "f"), 2, 3)
        assert res.found and res.trace.closures == 1
        assert flushes == [(2, False, True)]

    def test_frontier_exhausted(self, monkeypatch):
        # The depth bound stops a^4(f) and the limit has no redex: every
        # flush certifies rec X . a(X) again, and the frontier runs out.
        trs = self._TWO_WAYS.without("s", "t")
        flushes, _ = self._flushes(monkeypatch)
        res = self._check(trs, T(trs, "f"), 1000, 3, depth=3,
                          target=T(trs, "b"))
        assert not res.reached and res.diagnostics["reason"] == "frontier"
        assert flushes == [(2, True, False), (3, True, False),
                           (4, True, False)]

    def test_children_built_when_popped(self, monkeypatch):
        # A child pushed without a certified closure is a bare heap entry;
        # an exhausting search pops only part of its frontier, so it builds
        # fewer nodes than it pushes children.
        import irw.rewrite
        from irw.encode import phi
        from irw.laws import _designated_term, _fixture_words
        pong = load_fixture("nd_pong")
        R = build_R(pong)
        t = _designated_term(R, phi(_fixture_words(pong)[0], R.sig))
        built = children = 0

        class CountingNode(irw.rewrite._Node):
            __slots__ = ()

            def __init__(self, *args):
                nonlocal built
                built += 1
                super().__init__(*args)

        real = irw.rewrite.find_redexes

        def counting(*args):
            nonlocal children
            out = real(*args)
            children += len(out)
            return out

        monkeypatch.setattr(irw.rewrite, "_Node", CountingNode)
        monkeypatch.setattr(irw.rewrite, "find_redexes", counting)
        res = bounded_normalize(R, t, fuel=200, max_epochs=3)
        assert not res.found and res.diagnostics["expansions"] == 200
        assert 0 < built < children

    def test_steps_applied_on_demand(self, monkeypatch, r_right):
        import irw.rewrite
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        trace, _, _, popped, eager = eager_search(
            r_right, t, _normalize_goal(r_right), 10_000, 3, 32)
        calls = 0
        real = irw.rewrite.apply_step

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(irw.rewrite, "apply_step", counting)
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        assert _trace_fingerprint(res.trace) == _trace_fingerprint(trace)
        assert calls <= popped + res.trace.total_steps
        assert 3 * calls < eager

    def test_pumps_tried_only_when_their_level_is_reached(self, monkeypatch,
                                                          r_right):
        # A pump candidate is a child whose rule id admits a suffix pump.
        # Its pumps are tried only when the search reaches its step count,
        # so a search that ends inside a level tries fewer than it pushes.
        import irw.rewrite
        t = T(r_right, "run(xi, q0(rec X. a(X)), D1(rec X. a(X)), D2(rec X. a(X)))")
        tries = candidates = 0
        table = {}
        real_periods = irw.rewrite._pump_periods
        real_redexes = irw.rewrite.find_redexes
        real_try = irw.rewrite._try_pump

        def periods(*args):
            nonlocal table
            table = real_periods(*args)
            return table

        def redexes(*args):
            nonlocal table, candidates
            out = real_redexes(*args)
            candidates += sum(rid in table for _, rid in out)
            table = {}
            return out

        def counting(*args):
            nonlocal tries
            tries += 1
            return real_try(*args)

        monkeypatch.setattr(irw.rewrite, "_pump_periods", periods)
        monkeypatch.setattr(irw.rewrite, "find_redexes", redexes)
        monkeypatch.setattr(irw.rewrite, "_try_pump", counting)
        res = bounded_normalize(r_right, t, fuel=10_000, max_epochs=3)
        assert res.found and res.trace.closures
        assert 0 < tries < candidates
