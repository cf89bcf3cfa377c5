import random
import warnings

import pytest

from irw.encode import (
    EncodeError, EncodeWarning, build_R, build_S, build_S_prime,
    compile_construction, decode_config, emit_trs_file, encode_config,
    nd_to_srs, pebble_trs, phi, pickn_trs, tm_to_trs,
)
from irw.laws import gen_det_machine, gen_det_config, gen_nd_machine
from irw.machines import load_fixture, parse_machine
from irw.omega import NdConfig, OmegaWord, nd_steps, parse_word
from irw.rewrite import (
    apply_step, canon_key, find_redexes, is_normal_form, match, parse_trs,
)
from irw.terms import (
    Signature, bisim_equal, parse_term, print_term, term_symbols,
)
from irw.turing import make_config, tm_step


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


def _expected_base_count(m):
    r = sum(1 for e in m.delta.values() if e[2] == "R")
    l = sum(1 for e in m.delta.values() if e[2] == "L")
    rb = sum(1 for (q, f), e in m.delta.items()
             if e[2] == "R" and f == m.blank)
    lb = sum(1 for (q, f), e in m.delta.items()
             if e[2] == "L" and f == m.blank)
    g = len(m.alphabet)
    return r + l * g + l + rb + lb * g + lb


class TestTwoSided:
    def test_single_entry_rule(self):
        m = parse_machine("machine one\nkind det-two-sided\nstates q0 q1\n"
                          "initial q0\nblank _\nalphabet _ f g\n"
                          "delta q0 f -> q1 g R\nend")
        trs = tm_to_trs(m)
        assert len(trs.rules) == 1
        r = trs.rules[0]
        assert print_term(r.lhs) == "q0(x, f(y))"
        assert print_term(r.rhs) == "q1(g(x), y)"

    def test_empty_delta(self):
        m = parse_machine("machine z\nkind det-two-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ S 0\nend")
        assert len(tm_to_trs(m).rules) == 0

    def test_macc_count_by_emission_formula(self, macc):
        # 2 R rules + 3 L entries * 3 symbols + 3 left-end extensions,
        # plus the blank L entry's 3 + 1 right-end extensions.
        trs = tm_to_trs(macc)
        assert len(trs.rules) == _expected_base_count(macc) == 18

    def test_random_counts(self):
        rng = random.Random(12)
        for _ in range(30):
            m = gen_det_machine(rng)
            assert len(tm_to_trs(m).rules) == _expected_base_count(m)

    def test_reserved_names_rejected(self):
        m = parse_machine("machine bad\nkind det-two-sided\nstates run\n"
                          "initial run\nblank _\nalphabet _ S 0\nend")
        with pytest.raises(EncodeError, match="reserved"):
            tm_to_trs(m)


class TestConfigTerms:
    def test_encode_examples(self, macc):
        c = make_config(macc, (), "q0", ("S", "0"))
        assert print_term(encode_config(macc, c)) == "q0(end, S(0(end)))"
        c2 = make_config(macc, ("S", "0"), "q0", ("0",))
        assert print_term(encode_config(macc, c2)) == "q0(S(0(end)), 0(end))"

    def test_decode_empty(self, macc):
        t = parse_term("q0(end, end)", tm_to_trs(macc).sig)
        c = decode_config(macc, t)
        assert c.left == () and c.right == () and c.state == "q0"

    def test_roundtrip_random(self, macc):
        rng = random.Random(9)
        for _ in range(100):
            c = gen_det_config(rng, macc)
            assert decode_config(macc, encode_config(macc, c)) == c

    def test_decode_error_position(self, macc):
        sig = build_S(macc)[0].sig
        with pytest.raises(EncodeError, match="left"):
            decode_config(macc, parse_term("q0(T, end)", sig))


class TestStepExactSimulation:
    def _check(self, m, steps=60, samples=30, seed=5):
        trs = tm_to_trs(m)
        rng = random.Random(seed)
        for _ in range(samples):
            c = gen_det_config(rng, m)
            t = encode_config(m, c)
            for _ in range(steps):
                nxt = tm_step(m, c)
                reds = find_redexes(trs, t, 6)
                if nxt is None:
                    assert reds == []
                    assert is_normal_form(trs, t)
                    break
                assert len(reds) == 1 and reds[0][0] == ()
                t = apply_step(trs, t, *reds[0]).after
                assert decode_config(m, t) == nxt
                c = nxt

    def test_fixtures(self, macc, mrej):
        self._check(macc)
        self._check(mrej)
        self._check(load_fixture("m_ext"), steps=10)

    def test_random_machines(self):
        rng = random.Random(77)
        for _ in range(10):
            self._check(gen_det_machine(rng), steps=30, samples=10)


class TestPebble:
    def test_acc_halt_rule(self, macc):
        sys = pebble_trs(macc)
        rids = [r.rid for r in sys.rules]
        assert "qa.halt" in rids and "peb.T" in rids
        halt = sys.rule("qa.halt")
        assert print_term(halt.lhs) == "qa(x, 0(y))"
        assert print_term(halt.rhs) == "T"

    def test_rej_no_halt_rules(self, mrej):
        sys = pebble_trs(mrej)
        assert not [r for r in sys.rules if r.rid.endswith(".halt")]

    def test_count_law(self, macc, mrej):
        for m in (macc, mrej):
            base = tm_to_trs(m)
            sys = pebble_trs(m)
            halting = sum(1 for q in m.states if (q, "S") not in m.delta)
            assert len(sys.rules) == len(base.rules) + halting + 1

    def test_every_step_rule_pebbled(self, macc):
        base = tm_to_trs(macc)
        sys = pebble_trs(macc)
        for r in base.rules:
            pr = sys.rule(r.rid)
            assert pr.rhs.label.name == "peb"
            assert bisim_equal(pr.rhs.children[0], r.rhs)

    def test_overlap_warning(self):
        m = parse_machine("machine o\nkind det-two-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ S 0\n"
                          "delta q0 0 -> q0 0 R\nend")
        with pytest.warns(EncodeWarning, match="overlap"):
            pebble_trs(m)

    def test_pebble_correspondence(self, macc):
        # one machine step <=> one pebbled step wrapping peb at the redex
        sys = pebble_trs(macc)
        rng = random.Random(3)
        for _ in range(20):
            c = gen_det_config(rng, macc)
            nxt = tm_step(macc, c)
            if nxt is None:
                continue
            t = encode_config(macc, c)
            reds = [pr for pr in find_redexes(sys, t, 4)
                    if not pr[1].endswith(".halt")]
            assert reds and reds[0][0] == ()
            after = apply_step(sys, t, *reds[0]).after
            assert after.label.name == "peb"
            assert decode_config(macc, after.children[0]) == nxt


class TestPickn:
    def test_exact_rules(self):
        sys = pickn_trs()
        assert [(r.rid, print_term(r.lhs), print_term(r.rhs)) for r in sys.rules] == [
            ("pickn.c", "pickn", "c(pickn)"),
            ("pickn.ok", "pickn", "ok(0(end))"),
            ("c.ok", "c(ok(x))", "ok(S(x))"),
        ]

    def test_committed_value_is_nf(self):
        sys = pickn_trs()
        assert is_normal_form(sys, parse_term("ok(S(0(end)))", sys.sig))


class TestRunConstructions:
    def test_S_shape(self, macc):
        sys, start = build_S(macc)
        assert print_term(start) == "run(T, pickn, pickn)"
        assert sys.sig.get("run").arity == 3
        runs = [r for r in sys.rules if r.rid.startswith("run")]
        assert len(runs) == 1
        r = runs[0]
        assert print_term(r.lhs) == "run(T, ok(x), ok(y))"
        assert print_term(r.rhs) == "run(q0(x, y), ok(y), pickn)"

    def test_Sprime_shape(self, macc):
        s, _ = build_S(macc)
        sp, start = build_S_prime(macc)
        assert len(sp.rules) == len(s.rules) + 1
        assert sp.rules[-1].rid == "run.loop"
        r = sp.rule("run")
        assert r.rhs.label.name == "peb"
        loop = apply_step(sp, start, (), "run.loop")
        assert bisim_equal(loop.after, start)

    def test_acc_cycle_exists(self, macc):
        from irw.laws import greedy_cycle_run, _count_firings
        sys, start = build_S(macc)
        trace = greedy_cycle_run(sys, start, fuel=300, stop_after_firings=2)
        assert _count_firings(trace) >= 2

    def test_rej_structurally_capped(self, mrej):
        sys, start = build_S(mrej)
        producers = [r.rid for r in sys.rules
                     if any(s.name == "T" for s in term_symbols(r.rhs))
                     and not any(s.name == "T" for s in term_symbols(r.lhs))]
        assert producers == []


class TestOneSided:
    def test_counts(self, right, pong):
        assert len(nd_to_srs(right).rules) == 3
        assert len(nd_to_srs(pong).rules) == 3 + 3 * 3

    def test_left_rule_shape(self, pong):
        srs = nd_to_srs(pong)
        r = srs.rule("a.q1.b.L")
        assert print_term(r.lhs) == "a(q1(b(x)))"
        assert print_term(r.rhs) == "q0(a(b(x)))"

    def test_stepwise_image(self, right, pong):
        # successors through the word map coincide with one-step reducts
        for m, word in [(right, "(a)^w"), (pong, "(a)^w"), (pong, "ab(ba)^w")]:
            srs = nd_to_srs(m)
            c = NdConfig(parse_word(word, m.alphabet), m.initial, 0)
            for _ in range(12):
                t = phi(c, srs.sig)
                succ = nd_steps(m, c)
                want = sorted(canon_key(phi(x, srs.sig)) for x in succ)
                reds = find_redexes(srs, t, 40)
                got = sorted(canon_key(apply_step(srs, t, *pr).after)
                             for pr in reds)
                assert want == got
                if not succ:
                    break
                c = succ[0]


class TestPhi:
    def test_finite_word(self, right):
        sig = nd_to_srs(right).sig
        assert print_term(phi(["a", "b", "q0"], sig)) == "a(b(q0(end)))"

    def test_omega_word(self, right):
        sig = nd_to_srs(right).sig
        t = phi(parse_word("(a)^w"), sig)
        assert bisim_equal(t, parse_term("rec X . a(X)", sig))

    def test_config_head_zero(self, right):
        sig = nd_to_srs(right).sig
        c = NdConfig(parse_word("(a)^w"), "q0", 0)
        assert bisim_equal(phi(c, sig), parse_term("q0(rec X . a(X))", sig))

    def test_config_with_writes(self, pong):
        sig = nd_to_srs(pong).sig
        c = NdConfig(parse_word("ab(ba)^w"), "q0", 2, {0: "b"})
        t = phi(c, sig)
        want = parse_term("b(b(q0(b(rec X . a(b(X))))))", sig)
        assert bisim_equal(t, want)

    def test_tail_symbol_not_unary(self, right):
        sig = nd_to_srs(right).sig
        for w in (OmegaWord(("a",), ("a", "end")),
                  NdConfig(OmegaWord((), ("c",)), "q0", 1)):
            with pytest.raises(EncodeError, match="is not a unary symbol"):
                phi(w, sig)

    @pytest.mark.parametrize("w", [
        parse_word("b(a)^w"),
        NdConfig(parse_word("(a)^w"), "q0", 0, {0: "b"}),
        NdConfig(parse_word("(a)^w"), "q0", 2, {1: "b"}),
        NdConfig(parse_word("(a)^w"), "q9", 0),
        ("a", "b"),
        ("a", "end"),
    ], ids=["word-prefix", "write-at-head", "write-behind", "state",
            "sequence", "sequence-nullary"])
    def test_cell_outside_the_signature(self, w):
        # Every folded cell must be a unary symbol of sig; b and q9 are
        # not declared, and end is a constant.
        sig = nd_to_srs(parse_machine(
            "machine a\nkind nondet-one-sided\nstates q0\ninitial q0\n"
            "blank _\nalphabet _ a\nend")).sig
        with pytest.raises(EncodeError, match="is not a unary symbol"):
            phi(w, sig)


def _configs_within(m, word, levels=30, width=16):
    """Every configuration reached in `levels` breadth-first levels from
    the initial one, expanding the `width` least of each level."""
    frontier = [NdConfig(word, m.initial, 0)]
    seen = set(frontier)
    for _ in range(levels):
        nxt = [cc for c in frontier for cc in nd_steps(m, c)]
        nxt = [cc for cc in dict.fromkeys(nxt) if cc not in seen]
        seen.update(nxt)
        frontier = sorted(nxt)[:width]
    return seen


def _spine_matches(t, c):
    """Walk the image's unary spine past every explicit cell and twice
    round the cycle: the state at the head, symbol_at(i) elsewhere."""
    w = c.word
    upto = max([c.head, len(w.prefix)] + [p + 1 for p in c.writes])
    for i in range(upto + 2 * len(w.cycle) + 1):
        want = c.state if i == c.head else c.symbol_at(i - (i > c.head))
        if (t.label.name, t.label.arity) != (want, 1):
            return False
        t = t.children[0]
    return True


class TestConfigImages:
    """Config images against the tape, by a walk that shares no code with
    phi; and an image over a warm signature against one over a fresh copy
    (whose cyclic tails are all built anew)."""

    def _check(self, m, texts):
        sig = nd_to_srs(m).sig
        checked = rotated = written = 0
        for text in texts:
            w = parse_word(text, m.alphabet)
            for c in sorted(_configs_within(m, w)):
                t = phi(c, sig)
                assert _spine_matches(t, c), (m, text, c)
                assert canon_key(phi(c, Signature(sig))) == canon_key(t)
                checked += 1
                rotated += c.head > len(w.prefix) and len(w.cycle) > 1
                written += bool(c.writes)
        return checked, rotated, written

    def test_fixture_words(self, right, pong):
        # Neither fixture writes; nd_right drifts right through every
        # rotation of (ba), nd_pong stays at cells 0 and 1.
        assert self._check(right, ("(a)^w", "ab(ba)^w")) == (62, 28, 0)
        assert self._check(pong, ("(a)^w", "ab(ba)^w")) == (4, 0, 0)

    def test_random_machines(self):
        rng = random.Random(41)
        totals = [0, 0, 0]
        for _ in range(8):
            got = self._check(gen_nd_machine(rng),
                              ("(a)^w", "ab(ba)^w", "b_(ab)^w", "(_ab)^w"))
            totals = [a + b for a, b in zip(totals, got)]
        checked, rotated, written = totals
        assert checked >= 2000 and rotated >= 1000 and written >= 2000


class TestProbeSystem:
    def test_count_formula(self, right, pong):
        for m in (right, pong):
            sys = build_R(m)
            srs = nd_to_srs(m)
            assert len(sys.rules) == \
                len(srs.rules) + 2 + len(m.states) + 3 * len(m.alphabet)

    def test_restart_fourth_argument(self, right):
        r = build_R(right).rule("run.restart")
        assert print_term(r.rhs) == "run(xi, q0(z), D1(z), D2(z))"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rp = build_R(right, as_printed=True).rule("run.restart")
        assert print_term(rp.rhs) == "run(xi, q0(z), D1(z), D1(z))"
        assert match(rp.lhs, rp.rhs) is not None
        assert match(r.lhs, r.rhs) is None

    def test_as_printed_warns(self, right):
        with pytest.warns(EncodeWarning, match="re-enable"):
            build_R(right, as_printed=True)

    def test_generator_reaches_rational_words(self, right):
        sys = build_R(right)
        xi = parse_term("xi", sys.sig)
        from irw.rewrite import bounded_reach
        for word in ["rec X . a(X)", "rec X . b(X)", "rec X . a(b(X))"]:
            goal = parse_term(word, sys.sig)
            assert is_normal_form(sys, goal)
            res = bounded_reach(sys, xi, goal, fuel=4000, max_epochs=2)
            assert res.reached, word


class TestEmission:
    def test_deterministic_files(self, macc, right):
        for tag, m in [("base", macc), ("pebbled", macc), ("S", macc),
                       ("Sprime", macc), ("pickn", None), ("srs", right),
                       ("R", right)]:
            a = emit_trs_file(compile_construction(tag, m)[0])
            b = emit_trs_file(compile_construction(tag, m)[0])
            assert a == b
            back = parse_trs(a)
            assert len(back.rules) == len(compile_construction(tag, m)[0].rules)
            assert f"rules: {len(back.rules)}" in a

    def test_kind_mismatch(self, macc, right):
        with pytest.raises(EncodeError):
            compile_construction("S", right)
        with pytest.raises(EncodeError):
            compile_construction("R", macc)
        with pytest.raises(EncodeError):
            compile_construction("nosuch", macc)

    def test_unknown_tag_refused_before_missing_machine(self):
        with pytest.raises(EncodeError, match="unknown construction"):
            compile_construction("nosuch")
        with pytest.raises(EncodeError, match="needs a machine"):
            compile_construction("S")
        assert len(compile_construction("pickn")[0].rules) == 3

    def test_symbols_disjoint_from_cut(self, macc, right):
        for tag, m in [("S", macc), ("R", right)]:
            trs = compile_construction(tag, m)[0]
            assert "cut" not in {s.name for s in trs.sig}


class TestSingleSymbolAlphabet:
    def test_left_entries_one_rule_each(self):
        m = parse_machine("machine uni\nkind nondet-one-sided\nstates q0 q1\n"
                          "initial q0\nblank _\nalphabet _\n"
                          "delta q0 _ -> q1 _ L\ndelta q1 _ -> q0 _ L\nend")
        srs = nd_to_srs(m)
        assert len(srs.rules) == 2
        assert print_term(srs.rules[0].lhs) == "_(q0(_(x)))"
