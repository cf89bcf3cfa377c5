import random
import warnings

import pytest

from irw.encode import (
    EncodeWarning, build_S, build_S_prime, nd_to_srs, phi, tm_to_trs,
)
from irw.laws import (
    LawError, check_limit_correspondence, check_pickn, check_restart_cycle, check_srs_bisim,
    check_pebbled_reach, check_norm_probe, check_two_sided_bisim,
    gen_det_machine, gen_nd_machine, greedy_cycle_run, mutate_first_write,
    render_report, run_law,
)
from irw.machines import load_fixture
from irw.omega import NdConfig, nd_steps, parse_word
from irw.rewrite import (
    Epoch, Rule, Trace, Trs, apply_step, canon_key, find_redexes,
)
from irw.terms import app, var
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

    @pytest.mark.parametrize("bounds", [{"depth": -3}, {"width": 0},
                                        {"width": -1}])
    def test_bounds_out_of_range_refused(self, pong, bounds):
        with pytest.raises(LawError, match="depth >= 0 and width >= 1"):
            check_srs_bisim(pong, **bounds)


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

    def test_dispatch(self):
        rep = run_law("pickn", samples=5)
        assert rep.verdict == "holds"
        with pytest.raises(ValueError):
            run_law("nosuch")

    def test_default_samples_per_law(self):
        assert run_law("pickn").samples == 51
        assert run_law("two-sided-bisim").samples == 100
        assert run_law("two-sided-bisim", samples=7).samples == 7


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
