import random

import pytest

from irw.machines import FIXTURES, format_machine, load_fixture, parse_machine
from irw.omega import NdTmSpec
from irw.turing import (
    MachineError, TmSpec, display_config, eval_fun, eval_rel, initial_rel_config,
    make_config, parse_config, tm_final, tm_step,
)


@pytest.fixture(scope="module")
def macc():
    return load_fixture("m_acc")


@pytest.fixture(scope="module")
def mrej():
    return load_fixture("m_rej")


HALT_NOW = parse_machine("""
machine halt_now
kind det-two-sided
states q0
initial q0
blank _
alphabet _ S 0
end
""")

RUNNER = parse_machine("""
machine runner
kind det-two-sided
states q0
initial q0
blank _
alphabet _ S 0
delta q0 _ -> q0 _ R
delta q0 S -> q0 S R
delta q0 0 -> q0 0 R
end
""")


class TestStep:
    def test_scan_pushes_left(self, macc):
        c = make_config(macc, (), "q0", ("S", "0"))
        n = tm_step(macc, c)
        assert n.left == ("S",) and n.state == "q0" and n.right == ("0",)

    def test_left_move_trims_blank(self, macc):
        c = make_config(macc, ("0", "S"), "q1", ("_",))
        n = tm_step(macc, c)
        assert n.state == "qa" and n.left == ("S",) and n.right == ("0",)

    def test_normal_form(self, macc):
        c = make_config(macc, (), "qa", ("0",))
        assert tm_step(macc, c) is None

    def test_left_move_off_empty_left_reads_blank(self, macc):
        c = make_config(macc, (), "q1", ("S",))
        n = tm_step(macc, c)
        assert n.state == "qa" and n.right[0] == macc.blank

    def test_carrier_grows_by_at_most_one(self, macc, mrej):
        rng = random.Random(0)
        for m in (macc, mrej):
            for _ in range(40):
                left = tuple(rng.choice(m.alphabet) for _ in range(rng.randint(0, 3)))
                right = tuple(rng.choice(m.alphabet) for _ in range(rng.randint(0, 3)))
                c = make_config(m, left, rng.choice(m.states), right)
                n = tm_step(m, c)
                if n is not None:
                    assert len(n.left) + len(n.right) <= len(c.left) + len(c.right) + 2


class TestFinal:
    def test_acc_four_steps(self, macc):
        out = tm_final(macc, make_config(macc, (), "q0", ("S", "S", "0")), 100)
        assert out.kind == "final" and out.steps == 4
        assert out.config.state == "qa" and out.config.right[0] == "0"

    def test_rej_four_steps_reads_blank(self, mrej):
        out = tm_final(mrej, make_config(mrej, (), "q0", ("S", "S", "0")), 100)
        assert out.kind == "final" and out.steps == 4
        head = out.config.right[0] if out.config.right else mrej.blank
        assert head == mrej.blank

    def test_timeout(self):
        out = tm_final(RUNNER, make_config(RUNNER, (), "q0", ()), 10)
        assert out.kind == "timeout" and out.steps == 10


class TestEval:
    def test_fun_identity(self):
        got = eval_fun(HALT_NOW, 3, 10)
        assert got.kind == "value" and got.value == 3

    def test_fun_undefined(self, mrej):
        assert eval_fun(mrej, 0, 100).kind == "undefined"

    def test_fun_unknown(self):
        assert eval_fun(RUNNER, 2, 100).kind == "unknown"

    def test_rel_acc(self, macc):
        assert eval_rel(macc, 2, 3, 100) == "holds"
        assert eval_rel(macc, 0, 0, 100) == "holds"

    def test_rel_rej(self, mrej):
        assert eval_rel(mrej, 2, 3, 100) == "fails"

    def test_rel_zero_pair_trace(self, macc):
        c = initial_rel_config(macc, 0, 0)
        c1 = tm_step(macc, c)
        c2 = tm_step(macc, c1)
        assert c1.state == "q1" and c2.state == "qa"
        assert tm_step(macc, c2) is None
        assert c2.right[0] == "0"

    def test_rel_exhaustive_to_twenty(self, macc, mrej):
        for n in range(21):
            for k in range(21):
                assert eval_rel(macc, n, k, 200) == "holds"
                assert eval_rel(mrej, n, k, 200) == "fails"

    def test_requires_numeric_alphabet(self):
        m = parse_machine("machine x\nkind det-two-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ a\nend")
        with pytest.raises(MachineError):
            eval_fun(m, 1, 10)


class TestConfigText:
    def test_display_order(self, macc):
        c = make_config(macc, ("S", "0"), "q0", ("S", "0"))
        assert display_config(c) == "0 S q0 S 0"

    def test_parse_roundtrip(self, macc):
        rng = random.Random(4)
        for _ in range(50):
            left = tuple(rng.choice(macc.alphabet) for _ in range(rng.randint(0, 4)))
            right = tuple(rng.choice(macc.alphabet) for _ in range(rng.randint(0, 4)))
            c = make_config(macc, left, rng.choice(macc.states), right)
            assert parse_config(macc, display_config(c)) == c

    def test_parse_requires_one_state(self, macc):
        with pytest.raises(MachineError):
            parse_config(macc, "S 0 S")
        with pytest.raises(MachineError):
            parse_config(macc, "q0 S q1")


class TestMachineFiles:
    def test_fixture_roundtrip(self):
        for name in FIXTURES:
            m = load_fixture(name)
            assert parse_machine(format_machine(m)) == m

    def test_duplicate_delta_rejected(self):
        with pytest.raises(MachineError, match="duplicate"):
            parse_machine("machine d\nkind det-two-sided\nstates q0\n"
                          "initial q0\nblank _\nalphabet _ S 0\n"
                          "delta q0 S -> q0 S R\ndelta q0 S -> q0 0 L\nend")

    def test_states_alphabet_disjoint(self):
        for spec in (TmSpec, NdTmSpec):
            with pytest.raises(MachineError, match="overlap"):
                spec("x", ("q0", "S"), "q0", "_", ("_", "S"), {})

    # One check serves both kinds: a deterministic entry is one move, a
    # nondeterministic one a tuple of moves.
    @pytest.mark.parametrize("spec, entry", [
        (TmSpec, lambda move: move), (NdTmSpec, lambda move: (move,)),
    ], ids=["TmSpec", "NdTmSpec"])
    @pytest.mark.parametrize("initial, blank, key, move, message", [
        ("q9", "_", ("q0", "S"), ("q0", "S", "R"), "initial state q9"),
        ("q0", "B", ("q0", "S"), ("q0", "S", "R"), "blank B"),
        ("q0", "_", ("q9", "S"), ("q0", "S", "R"), "undeclared names"),
        ("q0", "_", ("q0", "S"), ("q0", "X", "R"), "undeclared names"),
        ("q0", "_", ("q0", "S"), ("q0", "S", "N"), "bad direction 'N'"),
    ], ids=["initial", "blank", "delta-state", "delta-symbol", "direction"])
    def test_spec_check(self, spec, entry, initial, blank, key, move,
                        message):
        with pytest.raises(MachineError, match=message):
            spec("x", ("q0",), initial, blank, ("_", "S"), {key: entry(move)})
        # The same machine with a good entry passes.
        spec("x", ("q0",), "q0", "_", ("_", "S"),
             {("q0", "S"): entry(("q0", "S", "R"))})

    def test_missing_field(self):
        with pytest.raises(MachineError, match="missing"):
            parse_machine("machine x\nkind det-two-sided\nstates q0\nend")
