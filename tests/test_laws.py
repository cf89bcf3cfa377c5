import random
import warnings

import pytest

from irw import laws
from irw.cli import main
from irw.encode import (
    EncodeWarning, build_S, build_S_prime, nd_to_srs, phi, tm_to_trs,
)
from irw.laws import (
    LawError, check_limit_correspondence, check_pickn, check_restart_cycle, check_srs_bisim,
    check_pebbled_reach, check_norm_probe, check_two_sided_bisim,
    gen_det_machine, gen_nd_machine, greedy_cycle_run, mutate_first_write,
    LawReport, render_report,
)
from irw.machines import load_fixture
from irw.omega import NdConfig, nd_steps, parse_word
from irw.rewrite import (
    Epoch, Rule, Trace, Trs, apply_step, canon_key, find_redexes,
)
from irw.terms import app, parse_term, var
from irw.turing import TmSpec


@pytest.fixture(scope="module")
def macc():
    return load_fixture("m_acc")


@pytest.fixture(scope="module")
def mrej():
    return load_fixture("m_rej")


@pytest.fixture(scope="module")
def right():
    return load_fixture("nd_right")


@pytest.fixture(scope="module")
def pong():
    return load_fixture("nd_pong")


class TestTwoSidedBisim:
    def test_fixture_holds(self, macc):
        rep = check_two_sided_bisim(macc, samples=50, steps=50, seed=7)
        assert rep.verdict == "holds"

    def test_vacuous_empty_delta(self):
        from irw.machines import parse_machine
        m = parse_machine("machine z\nkind det-two-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ S 0\nend")
        assert check_two_sided_bisim(m, samples=10, steps=5).verdict == "holds"

    def test_fault_injection_refutes(self, macc):
        bad = mutate_first_write(tm_to_trs(macc))
        rep = check_two_sided_bisim(macc, samples=50, steps=50, trs=bad)
        assert rep.verdict == "refuted"
        assert rep.witness and "step" in rep.witness

    def test_deterministic_reports(self, macc):
        a = check_two_sided_bisim(macc, samples=25, steps=25, seed=3)
        b = check_two_sided_bisim(macc, samples=25, steps=25, seed=3)
        assert (a.verdict, a.witness, a.lines) == (b.verdict, b.witness, b.lines)

    def test_no_step_compared_is_unknown(self, macc):
        rep = check_two_sided_bisim(macc, samples=5, steps=0)
        assert (rep.verdict, rep.witness) == ("unknown", "no step compared")
        assert rep.lines == ["steps compared: 0"]

    def test_negative_steps_refused(self, macc):
        with pytest.raises(LawError, match="steps"):
            check_two_sided_bisim(macc, samples=5, steps=-2)


class TestSrsBisim:
    def test_fixtures_hold(self, right, pong):
        for m in (right, pong):
            rep = check_srs_bisim(m, depth=100)
            assert rep.verdict == "holds"

    def test_random_machines_hold(self):
        rng = random.Random(41)
        for _ in range(8):
            m = gen_nd_machine(rng)
            assert check_srs_bisim(m, depth=40).verdict == "holds"

    def test_fault_injection_refutes(self, right):
        bad = mutate_first_write(nd_to_srs(right))
        rep = check_srs_bisim(right, trs=bad)
        assert rep.verdict == "refuted"

    def test_tape_rule_above_the_head_refutes(self, right):
        # The added rule holds no state symbol.  On (a)^w it matches at the
        # root once the head is at position 2, two cells above the state,
        # where no rule of the machine system is rooted.
        srs = nd_to_srs(right)
        a, b, x = srs.sig.get("a"), srs.sig.get("b"), var("x")
        tape = Rule("tape", app(a, app(a, x)), app(b, app(a, x)))
        rep = check_srs_bisim(right, trs=Trs(srs.sig, srs.rules + (tape,)))
        assert rep.verdict == "refuted"
        assert "successor sets differ" in rep.witness


    @pytest.mark.parametrize("bounds", [{"depth": 0}, {"words": []}])
    def test_nothing_sampled_is_unknown(self, pong, bounds):
        rep = check_srs_bisim(pong, **bounds)
        assert (rep.verdict, rep.witness) == ("unknown", "no configuration sampled")
        assert rep.samples == 0 and rep.lines == ["configs checked: 0"]

    @pytest.mark.parametrize("bounds", [{"depth": -3}])
    def test_bounds_out_of_range_refused(self, pong, bounds):
        with pytest.raises(LawError) as e:
            check_srs_bisim(pong, **bounds)
        assert str(e.value) == "srs-bisim needs depth >= 0, got -3"

    def test_frontier_keeps_four_configurations(self):
        # Each fixture keeps one configuration per level; this machine's
        # frontier is wider, and a width of 1 checks 12 configurations.
        rng = random.Random(1)
        for _ in range(4):
            m = gen_nd_machine(rng)
        words = [parse_word(w, m.alphabet) for w in ("(a)^w", "ab(ba)^w")]
        rep = check_srs_bisim(m, words=words, depth=6)
        assert (rep.name, rep.verdict, rep.samples) == (
            "srs-bisim[rand]", "holds", 17)


class TestPickn:
    def test_holds_and_counts(self):
        rep = check_pickn(12)
        assert rep.verdict == "holds"

    def test_length_one_for_zero(self):
        assert check_pickn(0).verdict == "holds"


class TestRestartCycle:
    def test_acc_cycles(self, macc):
        rep = check_restart_cycle(macc, firings=5, fuel=100_000)
        assert rep.verdict == "holds"
        assert "firings: 5" in rep.lines[0]

    def test_rej_capped(self, mrej):
        rep = check_restart_cycle(mrej, firings=2, fuel=1000)
        assert rep.verdict == "holds"
        assert "max firings" in rep.lines[0]

    def test_acc_tiny_fuel_unknown(self, macc):
        rep = check_restart_cycle(macc, firings=5, fuel=1)
        assert rep.verdict == "unknown"

    def test_rej_walk_of_no_step_unknown(self, mrej):
        # Fuel 0 expands nothing, so only the structural check would back
        # a holds; one expansion already takes steps.
        rep = check_restart_cycle(mrej, fuel=0)
        assert (rep.verdict, rep.witness) == (
            "unknown", "product walk took no step within fuel 0")
        assert check_restart_cycle(mrej, fuel=1).verdict == "holds"

    def test_rej_normal_form_start_holds(self, monkeypatch, mrej):
        # A start with no redex exhausts the walk's frontier with no step
        # taken, which bounds the firings at zero.
        built = laws.build_S
        monkeypatch.setattr(laws, "build_S", lambda m: (
            built(m)[0], parse_term("T", built(m)[0].sig)))
        rep = check_restart_cycle(mrej)
        assert rep.verdict == "holds" and rep.lines == [
            "no halt rules; max firings over 1 explored terms: 0"]
        assert check_restart_cycle(mrej, fuel=0).verdict == "unknown"


class TestPebbledReach:
    def test_acc(self, macc):
        rep = check_pebbled_reach(macc, firings=5, fuel=100_000)
        assert rep.verdict == "holds"
        assert "peb(peb(peb(peb(peb(cut)))))" in rep.lines[0]

    def test_rej(self, mrej):
        rep = check_pebbled_reach(mrej, firings=1, fuel=1000)
        assert rep.verdict == "holds"

    def test_greedy_driver_skips_loop(self, macc):
        from irw.encode import build_S_prime
        sys, start = build_S_prime(macc)
        trace = greedy_cycle_run(sys, start, fuel=100, stop_after_firings=3)
        assert all(s.rule_id != "run.loop" for s in trace.all_steps)


class TestNormProbe:
    # The holding half is criterion 6 of tests/test_acceptance.py.
    def test_as_printed_refuted(self, right, pong):
        rep = check_norm_probe(right, pong, as_printed=True)
        assert rep.verdict == "refuted"
        assert "own rhs" in rep.witness

    def test_swapped_fixtures_raise(self, right, pong):
        with pytest.raises(ValueError):
            check_norm_probe(pong, right)

    def test_accepting_negative_fixture_raises(self, right):
        with pytest.raises(ValueError) as e:
            check_norm_probe(right, right)
        assert str(e.value) == "negative fixture accepts a fixture word"


class TestLimitCorrespondence:
    def test_right_on_a(self, right):
        rep = check_limit_correspondence(right, parse_word("(a)^w"))
        assert rep.verdict == "holds"
        assert "rec X . a(X)" in rep.lines[0]

    def test_pong_on_a(self, pong):
        rep = check_limit_correspondence(pong, parse_word("(a)^w"))
        assert rep.verdict == "holds"
        assert "no closure" in rep.lines[0]

    def test_right_on_abba(self, right):
        rep = check_limit_correspondence(right, parse_word("ab(ba)^w"))
        assert rep.verdict == "holds"


def reference_greedy_run(trs, start, fuel, stop_after_firings=None,
                         depth_bound=32):
    """The greedy driver as its own loop, kept as an oracle: it drops the
    self-loop rule by priority instead of skipping every step that
    reproduces its term, and takes the minimum instead of sorting."""
    prio = {"run": 0, "peb.T": 2, "c.ok": 4, "pickn.ok": 5, "pickn.c": 6,
            "run.loop": 99}

    def priority(rid):
        p = prio.get(rid)
        if p is not None:
            return p
        return 1 if rid.endswith(".halt") else 3

    steps, cur, firings = [], start, 0
    for _ in range(fuel):
        reds = [(p, r) for (p, r) in find_redexes(trs, cur, depth_bound)
                if priority(r) < 99]
        if not reds:
            break
        pos, rid = min(reds, key=lambda pr: (priority(pr[1]), pr[0]))
        st = apply_step(trs, cur, pos, rid)
        steps.append(st)
        cur = st.after
        if rid == "run":
            firings += 1
        elif stop_after_firings is not None and firings >= stop_after_firings:
            break
    return Trace(start, (Epoch(tuple(steps)),))


NUMERIC = {"_": "_", "a": "S", "b": "0", "d": "d"}


def numeric_machine(rng):
    """A random deterministic machine over _ S 0 (and d), which S and
    Sprime can compile."""
    m = gen_det_machine(rng)
    alphabet = tuple(dict.fromkeys([NUMERIC[f] for f in m.alphabet] + ["S", "0"]))
    delta = {(q, NUMERIC[f]): (q2, NUMERIC[f2], d)
             for (q, f), (q2, f2, d) in m.delta.items()}
    return TmSpec("rand", m.states, m.initial, m.blank, alphabet, delta)


class TestGreedyDriverOracle:
    def test_matches_reference_loop(self):
        rng = random.Random(23)
        ms = [load_fixture(n) for n in ("m_acc", "m_rej", "m_ext")]
        ms += [numeric_machine(rng) for _ in range(10)]
        lengths = set()
        for m in ms:
            for build in (build_S, build_S_prime):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", EncodeWarning)
                    sys, start = build(m)
                for k in range(1, 6):
                    # The reference's exits do not depend on the fuel, so
                    # its run at any fuel is a prefix of its run at 120.
                    full = [(s.position, s.rule_id) for s in
                            reference_greedy_run(sys, start, 120, k).all_steps]
                    lengths.add(len(full))
                    # Beyond the run's own end the fuel no longer binds.
                    for fuel in sorted(set(range(1, len(full) + 3)) | {60, 90, 120}):
                        got = greedy_cycle_run(sys, start, fuel, k)
                        assert ([(s.position, s.rule_id) for s in got.all_steps]
                                == full[:fuel]), (m.name, sys.construction, k, fuel)
        assert len(lengths) >= 5


class TestSrsReductsOracle:
    def test_matches_whole_term_redexes(self):
        # The law enumerates redexes down to the head's depth: every
        # machine rule is rooted at the state or one above it, so a deeper
        # walk finds nothing more.
        rng = random.Random(5)
        checked = reducts = 0
        for _ in range(12):
            m = gen_nd_machine(rng)
            sys = nd_to_srs(m)
            for text in ("(a)^w", "ab(ba)^w", "b_(ab)^w"):
                c = NdConfig(parse_word(text, m.alphabet), m.initial, 0)
                for _ in range(25):
                    t = phi(c, sys.sig)
                    got = find_redexes(sys, t, c.head)
                    want = find_redexes(sys, t, c.head + 4)
                    assert got == want, (m, c)
                    checked += 1
                    reducts += len(want)
                    succs = nd_steps(m, c)
                    if not succs:
                        break
                    c = rng.choice(succs)
        assert checked >= 200 and reducts >= 200


class TestRunner:
    def test_render_has_verdict_line(self, macc):
        rep = check_two_sided_bisim(macc, samples=5, steps=5)
        text = render_report(rep)
        assert text.splitlines()[-1] == "VERDICT: holds"

    def test_dispatch(self, capsys):
        assert main(["laws", "pickn", "--samples", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "VERDICT: holds"
        assert main(["laws", "nosuch"]) == 3

    @pytest.mark.parametrize("name, check", [
        ("restart-cycle", "check_restart_cycle"),
        ("pebbled-reach", "check_pebbled_reach"),
        ("norm-probe", "check_norm_probe"),
        ("limit-correspondence", "check_limit_correspondence"),
    ])
    def test_fuel_default_lives_in_the_check(self, monkeypatch, capsys, name,
                                             check):
        # irw laws passes only the flags given, a 0 among them, so a
        # check's own signature is the one place its default fuel is
        # stated.
        seen = []

        def fake(*args, **kwargs):
            seen.append(kwargs)
            return LawReport(name, "holds")
        monkeypatch.setattr(laws, check, fake)
        for fuel in ([], ["--fuel", "3"], ["--fuel", "0"]):
            assert main(["laws", name, *fuel]) == 0
        assert seen == [{}, {"fuel": 3}, {"fuel": 0}]

    def test_default_samples_per_law(self, capsys):
        for argv, samples in ((["pickn"], 51), (["two-sided-bisim"], 100),
                              (["two-sided-bisim", "--samples", "7"], 7)):
            assert main(["laws", *argv]) == 0
            assert f"samples: {samples}" in \
                capsys.readouterr().out.splitlines()


class TestWitnessReplay:
    def test_two_sided_witness_replays(self, macc):
        # the reported witness carries machine, config and step index;
        # feeding it back through the simulation reproduces the divergence
        import re
        from irw.encode import encode_config, decode_config
        from irw.rewrite import find_redexes, apply_step
        from irw.turing import parse_config, tm_step
        bad = mutate_first_write(tm_to_trs(macc))
        rep = check_two_sided_bisim(macc, samples=50, steps=50, trs=bad)
        assert rep.verdict == "refuted"
        m = re.search(r"config '([^']*)' step (\d+)", rep.witness)
        assert m
        c = parse_config(macc, m.group(1))
        k = int(m.group(2))
        term = encode_config(macc, c)
        for _ in range(k):
            c = tm_step(macc, c)
            term = apply_step(bad, term, *find_redexes(bad, term, 0)[0]).after
        nxt = tm_step(macc, c)
        st = apply_step(bad, term, *find_redexes(bad, term, 0)[0])
        assert decode_config(macc, st.after) != nxt


def _altered(trs, drop=(), add=()):
    """trs without the rules named in drop, plus the rules (id, lhs, rhs)
    of add, read over its signature."""
    rules = [r for r in trs.rules if r.rid not in drop]
    rules += [Rule(rid, parse_term(lhs, trs.sig), parse_term(rhs, trs.sig))
              for rid, lhs, rhs in add]
    return Trs(trs.sig, rules, name=trs.name, construction=trs.construction)


class TestRefutedReturns:
    """Each law's refuted returns, driven by a corrupted system; the same
    call on the system as built holds."""

    def test_two_sided_bisim_one_side_halted(self, macc):
        good = tm_to_trs(macc)
        assert check_two_sided_bisim(macc, trs=good).verdict == "holds"
        rep = check_two_sided_bisim(macc, trs=good.without("q0.S.R"))
        assert (rep.verdict, rep.witness) == (
            "refuted", "machine m_acc config 'q0 S 0 0' step 0: one side halted")

    @pytest.mark.parametrize("corrupt, witness", [
        (mutate_first_write, "off-shape reduct ok(c(end))"),
        (lambda trs: _altered(trs, add=[("short", "pickn", "ok(S(0(end)))")]),
         "n=1: shortest 1 != 3"),
    ], ids=["off-shape", "distance"])
    def test_pickn(self, monkeypatch, corrupt, witness):
        assert check_pickn(5).verdict == "holds"
        built = laws.pickn_trs
        monkeypatch.setattr(laws, "pickn_trs", lambda: corrupt(built()))
        rep = check_pickn(5)
        assert (rep.verdict, rep.witness) == ("refuted", witness)

    @pytest.mark.parametrize("drop, add, witness", [
        ((), [("forge", "q0(x, y)", "T")],
         "unexpected T-producing rules ['forge']"),
        # The restart keeps T, so it fires again and again, on a cycle.
        (("run",), [("run", "run(T, ok(x), ok(y))", "run(T, ok(y), pickn)")],
         "a path with 2 firings exists"),
    ], ids=["T-producer", "two-firings"])
    def test_restart_cycle(self, monkeypatch, mrej, drop, add, witness):
        assert check_restart_cycle(mrej).verdict == "holds"
        built = laws.build_S
        monkeypatch.setattr(laws, "build_S", lambda m: (
            _altered(built(m)[0], drop, add), built(m)[1]))
        rep = check_restart_cycle(mrej)
        assert (rep.verdict, rep.witness) == ("refuted", witness)

    @pytest.mark.parametrize("drop, add, witness", [
        (("run",), [("run", "run(T, ok(x), ok(y))",
                     "peb(run(T, ok(y), pickn))")],
         "2 firings without halt rules"),
        (("run.loop",), [("run.loop", "run(x, y, z)", "run(x, z, y)")],
         "self-loop rule changed the reachable set"),
    ], ids=["two-firings", "reachable-set"])
    def test_pebbled_reach(self, monkeypatch, mrej, drop, add, witness):
        assert check_pebbled_reach(mrej).verdict == "holds"
        built = laws.build_S_prime
        monkeypatch.setattr(laws, "build_S_prime", lambda m: (
            _altered(built(m)[0], drop, add), built(m)[1]))
        rep = check_pebbled_reach(mrej)
        assert (rep.verdict, rep.witness) == ("refuted", witness)

    def test_norm_probe_as_built(self, monkeypatch, right, pong):
        # Only the designated term of the positive corpus, here and in
        # test_norm_probe: the refutations lie on the negative side.
        monkeypatch.setattr(laws, "_depth3_corpus", lambda *args: [])
        assert check_norm_probe(right, pong).verdict == "holds"

    @pytest.mark.parametrize("drop, add, witness", [
        ((), [("forge", "run(x, y, z, w)", "bot")],
         "negative designated term normalized to bot"),
        ((), [("drop", "q0(x)", "end")], "state-and-bot-free reduct end"),
        (("q0.bot", "q1.bot"), [("gen", "xi", "q1(end)")],
         "generator reduct contains state/bot: q1(end)"),
    ], ids=["normalized", "state-free", "generator"])
    def test_norm_probe(self, monkeypatch, right, pong, drop, add, witness):
        monkeypatch.setattr(laws, "_depth3_corpus", lambda *args: [])
        built = laws.build_R
        monkeypatch.setattr(laws, "build_R", lambda m, **kw: (
            _altered(built(m, **kw), drop, add) if m is pong
            else built(m, **kw)))
        rep = check_norm_probe(right, pong)
        assert (rep.verdict, rep.witness) == ("refuted", witness)

    @pytest.mark.parametrize("machine, rules, witness", [
        ("nd_right", [("loop", "q0(x)", "q0(x)")],
         "accepted word but no closure found"),
        ("nd_right", [], "limit is not a ground tape term: [q0/1]"),
        ("nd_pong", [],
         "rejected word but head term normalized to q0(rec X . a(X))"),
        ("nd_pong", [("ab", "a(x)", "b(x)"), ("ba", "b(x)", "a(x)")],
         "rewrite activity left depth 3 unexpectedly"),
    ], ids=["no-closure", "not-a-tape", "rejected-normalized", "depth"])
    def test_limit_correspondence(self, monkeypatch, machine, rules, witness):
        m, w = load_fixture(machine), parse_word("(a)^w")
        assert check_limit_correspondence(m, w).verdict == "holds"
        built = laws.nd_to_srs
        monkeypatch.setattr(laws, "nd_to_srs", lambda m: _altered(
            built(m), [r.rid for r in built(m).rules], rules))
        rep = check_limit_correspondence(m, w)
        assert (rep.verdict, rep.witness) == ("refuted", witness)


class TestUnknownReturns:
    """Each law's unknown returns, mostly on bounds too small to decide:
    what a law cannot decide it never refutes."""

    def test_pickn(self):
        rep = check_pickn(n_max=3, fuel=5)
        assert (rep.verdict, rep.witness) == (
            "unknown", "n=2 not reached within fuel 5")

    def test_pebbled_reach_shallow_prefix(self, macc):
        # Three steps pin no stable prefix.
        rep = check_pebbled_reach(macc, fuel=3)
        assert (rep.verdict, rep.witness) == (
            "unknown", "prefix depth 0 < 5 within fuel")

    @pytest.mark.parametrize("argv, witness", [
        # A run of no step is stable at every depth, but holds no tower.
        (["pebbled-reach", "--fuel", "0"],
         "stable prefix is not a peb tower of depth 5"),
        (["norm-probe", "--fuel", "0"],
         "corpus term xi did not normalize within fuel 0"),
        # A search of no step is stable at every depth, but bounds nothing.
        (["limit-correspondence", "--fixture", "nd_pong", "--fuel", "0"],
         "search took no step within fuel 0"),
        (["limit-correspondence", "--fixture", "nd_pong", "--fuel", "1"],
         "search took no step within fuel 1"),
        # A walk of no step leaves only the structural check.
        (["restart-cycle", "--fixture", "m_rej", "--fuel", "0"],
         "product walk took no step within fuel 0"),
    ], ids=["pebbled-reach", "norm-probe", "limit-correspondence-0",
            "limit-correspondence-1", "restart-cycle"])
    def test_cli(self, capsys, argv, witness):
        code = main(["laws", *argv])
        lines = capsys.readouterr().out.splitlines()
        assert (code, lines[-1]) == (2, "VERDICT: unknown")
        assert f"witness: {witness}" in lines

    def test_zero_firings(self, macc, mrej):
        # A machine with halt rules has no firing to find or pin; one
        # without them reads no firing count and still holds.
        for check, witness in ((check_restart_cycle, "no firing to find"),
                               (check_pebbled_reach, "no firing to pin")):
            rep = check(macc, firings=0)
            assert (rep.verdict, rep.witness) == ("unknown", witness)
            assert check(mrej, firings=0).verdict == "holds"

    def test_norm_probe_designated_not_bot(self, monkeypatch, right, pong):
        # No argument reaches this return: the designated term's root
        # rewrites only to run or bot, and a normal form rooted at run
        # would hold the normal forms of D1(z) and D2(z), both z, where
        # run.restart applies.  A forged rule to another normal form does.
        monkeypatch.setattr(laws, "_depth3_corpus", lambda *args: [])
        built = laws.build_R
        monkeypatch.setattr(laws, "build_R", lambda m, **kw: _altered(
            built(m, **kw), (), [("forge", "run(x, y, z, w)", "a(bot)")]))
        rep = check_norm_probe(right, pong)
        assert (rep.verdict, rep.witness) == (
            "unknown", "designated term did not reach bot within fuel 10000")

    def test_limit_correspondence_membership_unknown(self):
        # The law's fuel bounds only the rewriting side, so this return is
        # reached through the machine and word: machine 162 of the seeded
        # generator on ab(ba)^w, two of whose branches end on a window
        # merge and no branch accepts.
        rng = random.Random(1)
        for _ in range(163):
            m = gen_nd_machine(rng)
        rep = check_limit_correspondence(m, parse_word("ab(ba)^w", m.alphabet))
        assert (rep.verdict, rep.witness) == (
            "unknown", "membership unknown within bounds")
