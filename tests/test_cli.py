import sys
from pathlib import Path

import pytest

from irw import cli, laws
from irw.cli import main
from irw.machines import fixture_text


@pytest.fixture
def tm_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.tm"
        p.write_text(fixture_text(name))
        return str(p)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompile:
    def test_pickn(self, capsys, tmp_path):
        out_file = tmp_path / "pickn.trs"
        code, out, _ = run_cli(capsys, "compile", "pickn", "-o", str(out_file))
        assert code == 0 and "rules: 3" in out
        text = out_file.read_text()
        assert "rule pickn.c: pickn -> c(pickn)" in text

    def test_S_from_fixture_file(self, capsys, tm_file, tmp_path):
        out_file = tmp_path / "s.trs"
        code, out, _ = run_cli(capsys, "compile", "S", tm_file("m_acc"),
                               "-o", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "construction: S" in text
        assert "run(T, ok(x), ok(y)) -> run(q0(x, y), ok(y), pickn)" in text
        assert "qa.halt" in text

    def test_R_as_printed_warns(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "compile", "R", tm_file("nd_pong"),
                               "--as-printed")
        assert code == 0
        assert "warning:" in out
        assert "D1(z))" in out

    def test_kind_mismatch_is_input_error(self, capsys, tm_file):
        code, _, err = run_cli(capsys, "compile", "S", tm_file("nd_pong"))
        assert code == 3 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compile", "S", "nowhere.tm")
        assert code == 3

    @pytest.mark.parametrize("construction", ["base", "S", "R"])
    def test_missing_machine_refused(self, capsys, construction):
        code, out, err = run_cli(capsys, "compile", construction)
        assert (code, out) == (3, "")
        assert err == f"error: compile {construction} needs machine\n"

    @pytest.mark.parametrize("argv, message", [
        (["pickn", "m_acc"], "compile pickn does not use machine"),
        (["pickn", "--as-printed"], "compile pickn does not use --as-printed"),
        (["S", "m_acc", "--as-printed"], "compile S does not use --as-printed"),
        (["pickn", "nowhere.tm", "--as-printed"],
         "compile pickn does not use machine, --as-printed"),
    ])
    def test_unused_input_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "compile", *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestTm:
    def test_rel_holds(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "tm", "rel", tm_file("m_acc"),
                               "--pair", "2", "3", "--fuel", "100")
        assert code == 0
        assert "steps: 5" in out
        assert out.strip().endswith("VERDICT: holds")

    def test_rel_out_of_fuel_unknown(self, capsys):
        code, out, _ = run_cli(capsys, "tm", "rel", "m_acc", "--pair", "2",
                               "3", "--fuel", "0")
        assert code == 2
        assert out.splitlines() == ["0 S S q0 S S S 0", "steps: 0",
                                    "VERDICT: unknown"]

    def test_rel_fails(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "tm", "rel", tm_file("m_rej"),
                               "--pair", "2", "3")
        assert code == 1 and "VERDICT: fails" in out

    def test_fun_value(self, capsys, tmp_path):
        p = tmp_path / "halt.tm"
        p.write_text("machine halt_now\nkind det-two-sided\nstates q0\n"
                     "initial q0\nblank _\nalphabet _ S 0\nend\n")
        code, out, _ = run_cli(capsys, "tm", "fun", str(p), "--arg", "3")
        assert code == 0 and "value: 3" in out

    def test_run_prints_displays(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "tm", "run", tm_file("m_acc"),
                               "--config", "q0 S S 0", "--fuel", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q0 S S 0"
        assert "S S qa 0" in lines
        assert "VERDICT: final" in out

    @pytest.mark.parametrize("fuel", [0, 3, 4, 5])
    def test_run_agrees_with_tm_final(self, capsys, fuel):
        # From q0 S S 0, m_acc halts after 4 steps: at fuel 3 a step
        # remains (timeout), at fuel 4 none does (final).
        from irw import turing
        from irw.machines import load_fixture
        m = load_fixture("m_acc")
        out = turing.tm_final(m, turing.parse_config(m, "q0 S S 0"), fuel)
        code, text, _ = run_cli(capsys, "tm", "run", "m_acc",
                                "--config", "q0 S S 0", "--fuel", str(fuel))
        lines = text.splitlines()
        assert len(lines) == out.steps + 3
        assert lines[-3] == turing.display_config(out.config)
        assert lines[-2:] == [f"steps: {out.steps}", f"VERDICT: {out.kind}"]
        assert code == (2 if fuel < 4 else 0)

    @pytest.mark.parametrize("action", [
        ["run", "--config", "q0 S S 0"],
        ["fun", "--arg", "2"],
        ["rel", "--pair", "2", "3"],
    ], ids=["run", "fun", "rel"])
    def test_negative_fuel_refused(self, capsys, tm_file, action):
        code, out, err = run_cli(capsys, "tm", action[0], tm_file("m_acc"),
                                 *action[1:], "--fuel", "-3")
        assert (code, out, err) == (3, "", "error: fuel must be >= 0\n")

    def test_rel_runs_machine_once(self, capsys, monkeypatch):
        from irw import turing
        calls = []
        real = turing.tm_final
        monkeypatch.setattr(turing, "tm_final",
                            lambda *a: calls.append(a) or real(*a))
        code, out, _ = run_cli(capsys, "tm", "rel", "m_acc", "--pair", "2", "3")
        assert code == 0 and "VERDICT: holds" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, message", [
        (["run", "m_acc", "--config", "q0", "--arg", "3"],
         "tm run does not use --arg"),
        (["fun", "m_acc", "--arg", "2", "--config", "q0"],
         "tm fun does not use --config"),
        (["rel", "m_acc", "--pair", "1", "1", "--arg", "5"],
         "tm rel does not use --arg"),
        (["run", "nowhere.tm", "--config", "q0", "--pair", "1", "1"],
         "tm run does not use --pair"),
        # A zero is given, not omitted.
        (["run", "m_acc", "--config", "q0", "--arg", "0"],
         "tm run does not use --arg"),
    ])
    def test_unused_flag_refused(self, capsys, argv, message):
        # Refused before the machine file is read.
        code, out, err = run_cli(capsys, "tm", *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("action, message", [
        ("run", "tm run needs --config"),
        ("fun", "tm fun needs --arg"),
        ("rel", "tm rel needs --pair"),
    ])
    def test_missing_input_refused(self, capsys, action, message):
        # Refused before the machine is read: the file does not exist.
        code, out, err = run_cli(capsys, "tm", action, "nowhere.tm")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["tm", "rel", "nd_pong", "--pair", "1", "1"],
        ["omega", "member", "m_acc", "--word", "(S)^w"],
    ], ids=["tm", "omega"])
    def test_wrong_kind_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {argv[2]} is a ")

    def test_bad_config_is_input_error(self, capsys, tm_file):
        code, _, err = run_cli(capsys, "tm", "run", tm_file("m_acc"),
                               "--config", "S S 0")
        assert code == 3

    @pytest.mark.parametrize("argv, bad", [
        (["fun", "m_acc", "--arg", "-2"], -2),
        (["rel", "m_acc", "--pair", "-1", "2"], -1),
        (["rel", "m_acc", "--pair", "2", "-3"], -3),
    ])
    def test_negative_numeral_refused(self, capsys, argv, bad):
        code, out, err = run_cli(capsys, "tm", *argv)
        assert (code, out) == (3, "")
        assert err == f"error: numerals must be >= 0, got {bad}\n"


class TestTrs:
    @pytest.fixture
    def pickn_file(self, capsys, tmp_path):
        out_file = tmp_path / "pickn.trs"
        run_cli(capsys, "compile", "pickn", "-o", str(out_file))
        return str(out_file)

    def test_reach_seven(self, capsys, pickn_file):
        code, out, _ = run_cli(capsys, "trs", "reach", pickn_file,
                               "--from", "pickn",
                               "--to", "ok(S(S(S(0(end)))))")
        assert code == 0
        assert "steps: 7" in out and "VERDICT: reached" in out

    def test_deep_rhs_trace(self, capsys, tmp_path):
        # The step builds a 10^4-deep rhs instance at the default
        # recursion limit; the trace prints only the start term.
        n = 10 ** 4
        path = tmp_path / "deep.trs"
        path.write_text(f"sig a/0 b/0 S/1\nrule r: a -> {'S(' * n}b{')' * n}\n")
        assert sys.getrecursionlimit() < n
        code, out, _ = run_cli(capsys, "trs", "trace", str(path),
                               "--term", "a", "--fuel", "1")
        assert code == 0
        assert out.splitlines() == ["start: a", "0 @root r",
                                    "VERDICT: normal-form"]

    def test_normalize_designated(self, capsys, tm_file, tmp_path):
        out_file = tmp_path / "r.trs"
        run_cli(capsys, "compile", "R", tm_file("nd_right"), "-o", str(out_file))
        code, out, _ = run_cli(
            capsys, "trs", "normalize", str(out_file),
            "--term",
            "run(xi,q0(rec X. a(X)),D1(rec X. a(X)),D2(rec X. a(X)))",
            "--epochs", "3")
        assert code == 0
        assert "normal-form: bot" in out and "VERDICT: found" in out
        assert "omega-limit:" in out

    def test_trace_sprime_greedy_closes(self, capsys, tm_file, tmp_path):
        out_file = tmp_path / "sp.trs"
        run_cli(capsys, "compile", "Sprime", tm_file("m_acc"), "-o", str(out_file))
        code, out, _ = run_cli(capsys, "trs", "trace", str(out_file),
                               "--term", "run(T,pickn,pickn)",
                               "--fuel", "60", "--strategy", "greedy")
        assert code == 0
        assert "omega-limit: rec X . peb(X)" in out

    @pytest.mark.parametrize("construction, term, fuel", [
        (["S", "m_rej"], "run(T,pickn,pickn)", "6"),
        (["pickn"], "pickn", "1"),
    ], ids=["S-m_rej", "pickn"])
    def test_greedy_normal_form_on_last_fuel_step(self, capsys, tmp_path,
                                                  construction, term, fuel):
        # The last step the fuel allows reaches a normal form: nothing is
        # left to do, so the run is not exhausted.
        out_file = tmp_path / "sys.trs"
        run_cli(capsys, "compile", *construction, "-o", str(out_file))
        code, out, _ = run_cli(capsys, "trs", "trace", str(out_file),
                               "--term", term, "--strategy", "greedy",
                               "--fuel", fuel)
        assert code == 0
        assert out.splitlines()[-1] == "VERDICT: normal-form"
        assert len(out.splitlines()) == int(fuel) + 2

    def test_show_terms_follows_each_step_with_its_after_term(
            self, capsys, pickn_file):
        from irw.rewrite import parse_trs, run_strategy
        from irw.terms import parse_term, print_term
        code, out, _ = run_cli(capsys, "trs", "trace", pickn_file, "--term",
                               "pickn", "--fuel", "4", "--show-terms")
        trs = parse_trs(Path(pickn_file).read_text())
        run = run_strategy(trs, parse_term("pickn", trs.sig), fuel=4)
        want = []
        for k, st in enumerate(run.trace.all_steps):
            where = ".".join(map(str, st.position)) or "root"
            want += [f"{k} @{where} {st.rule_id}", f"    {print_term(st.after)}"]
        lines = out.splitlines()
        assert code == 0 and lines[0] == "start: pickn"
        assert lines[1:1 + len(want)] == want and len(want) == 8
        assert want[-1] == "    c(c(c(c(pickn))))"

    def test_trace_without_reentry_does_not_close(self, capsys, tmp_path):
        # Each step wraps k at a deeper position, but the s run it eats is
        # finite: the trace reaches a normal form, never a limit.
        trs_file = tmp_path / "hsk.trs"
        trs_file.write_text("sig h/1 s/1 k/1 a/0\nrule r: h(s(x)) -> k(h(x))\n")
        code, out, _ = run_cli(capsys, "trs", "trace", str(trs_file),
                               "--term", "h(s(s(s(s(a)))))", "--fuel", "10")
        assert code == 0
        assert out.splitlines()[-1] == "VERDICT: normal-form"

    def test_trace_exhausted_reports_prefix(self, capsys, tm_file, tmp_path):
        out_file = tmp_path / "ext.trs"
        run_cli(capsys, "compile", "base", tm_file("m_ext"), "-o", str(out_file))
        code, out, _ = run_cli(capsys, "trs", "trace", str(out_file),
                               "--term", "q0(end, end)", "--fuel", "8")
        assert code == 2
        assert "stable-prefix depth: 0" in out and "VERDICT: exhausted" in out

    def test_redex_below_depth_is_unknown_not_looping(self, capsys,
                                                      pickn_file):
        # The only redex, pickn, lies at depth 41, below --depth 32: the
        # trace takes no step, and that proves no loop.
        term = "ok(" + "S(" * 40 + "pickn" + ")" * 41
        code, out, _ = run_cli(capsys, "trs", "trace", pickn_file,
                               "--term", term)
        assert code == 2
        assert out.splitlines()[1:] == ["VERDICT: unknown"]
        code, out, _ = run_cli(capsys, "trs", "trace", pickn_file,
                               "--term", term, "--depth", "50")
        assert code == 0 and out.splitlines()[-1] == "VERDICT: closed"

    @pytest.mark.parametrize("rules, term, verdict, code", [
        ("sig f/1 a/0 b/0\nrule l: f(x) -> f(x)\nrule g: a -> b\n",
         "f(" * 41 + "a" + ")" * 41, "unknown", 2),
        ("sig f/1 a/0\nrule l: f(x) -> f(x)\n", "f(a)", "looping", 0),
        ("sig f/1 a/0\nrule l: f(x) -> f(x)\n",
         "f(" * 41 + "a" + ")" * 41, "looping", 0),
        ("sig f/1\nrule l: f(x) -> f(x)\n", "rec X . f(X)", "looping", 0),
    ], ids=["productive-below-depth", "self-loop", "self-loops-below-depth",
            "rational"])
    def test_looping_only_when_every_redex_is_a_self_loop(
            self, capsys, tmp_path, rules, term, verdict, code):
        trs_file = tmp_path / "loop.trs"
        trs_file.write_text(rules)
        got, out, _ = run_cli(capsys, "trs", "trace", str(trs_file),
                              "--term", term)
        assert (got, out.splitlines()[-1]) == (code, f"VERDICT: {verdict}")

    def test_reach_exhausted_exit(self, capsys, tm_file, tmp_path):
        out_file = tmp_path / "sp.trs"
        run_cli(capsys, "compile", "Sprime", tm_file("m_acc"), "-o", str(out_file))
        code, out, _ = run_cli(capsys, "trs", "reach", str(out_file),
                               "--from", "run(T,pickn,pickn)",
                               "--to", "rec X . peb(X)", "--fuel", "60")
        assert code == 2 and "VERDICT: exhausted" in out

    def test_parse_error_is_input_error(self, capsys, pickn_file):
        code, _, err = run_cli(capsys, "trs", "reach", pickn_file,
                               "--from", "pickn", "--to", "ok(S(S")
        assert code == 3

    @pytest.mark.parametrize("action", [
        ["normalize", "--term", "ok(0(end))"],
        ["reach", "--from", "pickn", "--to", "pickn"],
    ], ids=["normalize", "reach"])
    @pytest.mark.parametrize("flag, message", [
        ("--fuel", "fuel must be >= 0"),
        ("--epochs", "max_epochs must be >= 0"),
        ("--depth", "depth_bound must be >= 0"),
    ])
    def test_negative_bound_refused(self, capsys, pickn_file, action, flag,
                                    message):
        # The start is already the goal: a bound must be refused up front,
        # before the search finds it.
        code, out, err = run_cli(capsys, "trs", action[0], pickn_file,
                                 *action[1:], flag, "-1")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("action, extra, message", [
        (["trace", "--term", "pickn"], ["--epochs", "3"], "--epochs"),
        (["trace", "--term", "pickn"], ["--from", "pickn"], "--from"),
        (["trace", "--term", "pickn"], ["--to", "pickn"], "--to"),
        (["normalize", "--term", "pickn"], ["--from", "pickn"], "--from"),
        (["normalize", "--term", "pickn"], ["--to", "pickn"], "--to"),
        (["normalize", "--term", "pickn"], ["--strategy", "random"],
         "--strategy"),
        (["normalize", "--term", "pickn"], ["--seed", "5"], "--seed"),
        (["reach", "--from", "pickn", "--to", "pickn"], ["--term", "pickn"],
         "--term"),
        (["reach", "--from", "pickn", "--to", "pickn"],
         ["--strategy", "greedy"], "--strategy"),
        (["reach", "--from", "pickn", "--to", "pickn"], ["--seed", "5"],
         "--seed"),
        (["normalize", "--term", "pickn"],
         ["--seed", "5", "--to", "pickn", "--strategy", "random"],
         "--to, --strategy, --seed"),
        # A trace reads --seed only with --strategy random.
        (["trace", "--term", "pickn"], ["--seed", "3"], "--seed"),
        (["trace", "--term", "pickn", "--strategy", "greedy"], ["--seed", "3"],
         "--seed"),
        (["trace", "--term", "pickn", "--strategy", "random"],
         ["--epochs", "2"], "--epochs"),
        # A zero is given, not omitted.
        (["trace", "--term", "pickn"], ["--seed", "0"], "--seed"),
        (["trace", "--term", "pickn"], ["--epochs", "0"], "--epochs"),
        (["normalize", "--term", "pickn"], ["--seed", "0"], "--seed"),
    ])
    def test_unused_flag_refused(self, capsys, pickn_file, action, extra,
                                 message):
        code, out, err = run_cli(capsys, "trs", action[0], pickn_file,
                                 *action[1:], *extra)
        assert (code, out) == (3, "")
        assert err == f"error: trs {action[0]} does not use {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["trace"], "trs trace needs --term"),
        (["trace", "--strategy", "random", "--seed", "2"],
         "trs trace needs --term"),
        (["normalize", "--epochs", "2"], "trs normalize needs --term"),
        (["reach"], "trs reach needs --from, --to"),
        (["reach", "--from", "pickn"], "trs reach needs --to"),
        (["reach", "--to", "pickn"], "trs reach needs --from"),
    ])
    def test_missing_input_refused_before_reading_the_file(
            self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(capsys, "trs", argv[0],
                                 str(tmp_path / "missing.trs"), *argv[1:])
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_unused_flag_refused_before_reading_the_file(self, capsys,
                                                         tmp_path):
        code, _, err = run_cli(capsys, "trs", "reach",
                               str(tmp_path / "missing.trs"), "--from", "a",
                               "--to", "a", "--seed", "1")
        assert (code, err) == (3, "error: trs reach does not use --seed\n")

    @pytest.mark.parametrize("argv, default", [
        (["trace", "--term", "pickn", "--fuel", "4", "--strategy", "random"],
         ["--seed", "7"]),
        (["normalize", "--term", "pickn", "--fuel", "4"], ["--epochs", "4"]),
        (["reach", "--from", "pickn", "--to", "ok(S(0(end)))"],
         ["--epochs", "4"]),
    ], ids=["trace", "normalize", "reach"])
    def test_omitted_flag_takes_its_default(self, capsys, pickn_file, argv,
                                            default):
        runs = [run_cli(capsys, "trs", argv[0], pickn_file, *argv[1:], *more)
                for more in ([], default)]
        assert runs[0] == runs[1]


class TestUserPaths:
    # A path the user names that cannot be read or written is an input
    # error; only the shipped fixtures' own files are the program's.
    @pytest.fixture
    def not_utf8(self, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"machine caf\xe9\n")
        return str(p)

    @pytest.mark.parametrize("argv", [
        ["tm", "run", "{dir}", "--config", "q0"],
        ["tm", "run", "{bad}", "--config", "q0"],
        ["omega", "member", "{dir}", "--word", "(a)^w"],
        ["compile", "S", "{bad}"],
        ["trs", "trace", "{dir}", "--term", "pickn"],
        ["trs", "reach", "{bad}", "--from", "pickn", "--to", "pickn"],
        ["trs", "trace", "{dir}/none.trs", "--term", "pickn"],
    ], ids=["tm-dir", "tm-not-utf8", "omega-dir", "compile-not-utf8",
            "trs-dir", "trs-not-utf8", "trs-missing"])
    def test_unreadable_path(self, capsys, tmp_path, not_utf8, argv):
        argv = [a.format(dir=tmp_path, bad=not_utf8) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read ")

    @pytest.mark.parametrize("argv", [
        ["laws", "srs-bisim", "--fixture", ""],
        ["omega", "member", "", "--word", "(a)^w"],
        ["tm", "run", "", "--config", "q0"],
    ], ids=["laws", "omega", "tm"])
    def test_empty_machine_name(self, capsys, argv):
        # As a path, "" names the current directory; it names no machine.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: no machine given: the machine name is empty\n"

    @pytest.mark.parametrize("where", ["{tmp}/no/such/dir/x.trs", "{tmp}"],
                             ids=["no-dir", "is-dir"])
    def test_unwritable_output(self, capsys, tmp_path, where):
        target = where.format(tmp=tmp_path)
        code, out, err = run_cli(capsys, "compile", "pickn", "-o", target)
        assert code == 3 and "VERDICT:" not in out
        assert err.startswith(f"error: cannot write {target!r}")

    def test_fixture_read_failure_is_internal(self, capsys, monkeypatch):
        def broken(name):
            raise IsADirectoryError(21, "Is a directory")
        monkeypatch.setattr("irw.machines.fixture_text", broken)
        code, out, err = run_cli(capsys, "tm", "rel", "m_acc",
                                 "--pair", "1", "1")
        assert (code, out) == (4, "")
        assert err.startswith("internal error: IsADirectoryError")


class TestOmega:
    def test_member_accepted(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "omega", "member", tm_file("nd_right"),
                               "--word", "(a)^w")
        assert code == 0 and "VERDICT: accepted" in out

    def test_member_rejected(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "omega", "member", tm_file("nd_pong"),
                               "--word", "(a)^w")
        assert code == 1 and "VERDICT: rejected_exhausted" in out

    def test_classify_unknown_small_bounds(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "omega", "classify", tm_file("nd_pong"),
                               "--word", "ab(ba)^w", "--fuel", "1")
        assert code == 2 and "VERDICT: unknown" in out

    def test_classify_oscillating(self, capsys, tm_file):
        code, out, _ = run_cli(capsys, "omega", "classify", tm_file("nd_pong"),
                               "--word", "(a)^w")
        assert code == 1 and "VERDICT: oscillating" in out

    def test_bad_word_is_input_error(self, capsys, tm_file):
        code, _, _ = run_cli(capsys, "omega", "member", tm_file("nd_right"),
                             "--word", "(z)^w")
        assert code == 3

    @pytest.mark.parametrize("name, want_code", [("omega_member_right", 0),
                                                 ("omega_member_pong", 1)])
    def test_member_explores_once(self, capsys, monkeypatch, name, want_code):
        from irw import omega
        calls = []
        explore = omega.explore_runs

        def counted(*args, **kwargs):
            calls.append(args)
            return explore(*args, **kwargs)

        monkeypatch.setattr(omega, "explore_runs", counted)
        argv = dict((n, a) for n, _, a in README_COMMANDS)[name]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, len(calls)) == (want_code, "", 1)
        assert out == (GOLDEN / f"{name}.out").read_text()


class TestLaws:
    def test_limit_correspondence_holds(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "limit-correspondence")
        assert code == 0
        assert out.strip().splitlines()[-1] == "VERDICT: holds"

    def test_pickn_small(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "pickn", "--samples", "8")
        assert code == 0 and "VERDICT: holds" in out

    def test_fixture_flag(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "restart-cycle", "--fixture", "m_rej",
                               "--fuel", "1000")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["srs-bisim", "--samples", "3"],
        ["pickn", "--fuel", "10"],
        ["norm-probe", "--fixture", "nd_right"],
        ["limit-correspondence", "--as-printed"],
        ["limit-correspondence", "--seed", "5"],
        ["srs-bisim", "--seed", "5"],
        # The as-printed restart rule refutes before any search.
        ["norm-probe", "--fuel", "5", "--as-printed"],
    ])
    def test_unused_flag_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "laws", *argv)
        assert (code, out) == (3, "")
        assert err == f"error: laws {argv[0]} does not use {argv[1]}\n"

    @pytest.mark.parametrize("fuel, prefix", [
        # Too few steps to fire five restarts: the stable prefix is not
        # the peb tower, so the law cannot hold.
        ("30", "peb(peb(peb(peb(run(cut, cut, cut)))))"),
        # No step at all: the start term is stable at every depth.
        ("0", "run(T, pickn, pickn)"),
    ])
    def test_pebbled_reach_short_run_unknown(self, capsys, fuel, prefix):
        code, out, _ = run_cli(capsys, "laws", "pebbled-reach", "--fuel", fuel)
        lines = out.splitlines()
        assert code == 2 and lines[-1] == "VERDICT: unknown"
        assert f"stable peb prefix depth: 5 ({prefix})" in lines
        assert "witness: stable prefix is not a peb tower of depth 5" in lines

    def test_pebbled_reach_no_halt_no_step_unknown(self, capsys):
        # Zero firings in a run of no steps bounds nothing.
        code, out, _ = run_cli(capsys, "laws", "pebbled-reach", "--fixture",
                               "m_rej", "--fuel", "0")
        lines = out.splitlines()
        assert code == 2 and lines[-1] == "VERDICT: unknown"
        assert "no halt rules; firings: 0 (expected <= 1)" in lines
        assert "witness: greedy run took no step within fuel 0" in lines

    @pytest.mark.parametrize("name, fixture, kind", [
        ("two-sided-bisim", "nd_right", "det-two-sided"),
        ("srs-bisim", "m_acc", "nondet-one-sided"),
        ("restart-cycle", "nd_pong", "det-two-sided"),
        ("pebbled-reach", "nd_right", "det-two-sided"),
        ("limit-correspondence", "m_acc", "nondet-one-sided"),
    ])
    def test_wrong_kind_fixture_refused(self, capsys, name, fixture, kind):
        code, out, err = run_cli(capsys, "laws", name, "--fixture", fixture)
        other = ({"det-two-sided", "nondet-one-sided"} - {kind}).pop()
        assert (code, out) == (3, "")
        assert err == f"error: {fixture} is a {other} machine, not {kind}\n"

    def test_unknown_fixture_refused(self, capsys):
        code, out, err = run_cli(capsys, "laws", "srs-bisim", "--fixture",
                                 "nosuch")
        assert (code, out) == (3, "")
        assert err.startswith("error: unknown fixture 'nosuch'")

    @pytest.mark.parametrize("name", ["restart-cycle", "pebbled-reach",
                                      "norm-probe", "limit-correspondence"])
    def test_negative_fuel_refused(self, capsys, name):
        code, out, err = run_cli(capsys, "laws", name, "--fuel", "-1")
        assert (code, out, err) == (3, "", "error: fuel must be >= 0\n")

    @pytest.mark.parametrize("argv", [["two-sided-bisim", "--samples", "-3"],
                                      ["pickn", "--samples", "-1"]])
    def test_negative_samples_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "laws", *argv)
        assert (code, out, err) == (3, "", "error: samples must be >= 0\n")

    def test_two_sided_bisim_no_samples_unknown(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "two-sided-bisim",
                               "--samples", "0")
        lines = out.splitlines()
        assert code == 2 and lines[-1] == "VERDICT: unknown"
        assert "steps compared: 0" in lines
        assert "witness: no configuration sampled" in lines

    def test_limit_correspondence_out_of_fuel_unknown(self, capsys):
        # An accepted word whose search runs out of fuel refutes nothing.
        code, out, _ = run_cli(capsys, "laws", "limit-correspondence",
                               "--fuel", "1")
        assert code == 2 and out.splitlines()[-1] == "VERDICT: unknown"
        assert "witness: accepted word but no closure found within fuel 1" \
            in out.splitlines()

    def test_seed_only_for_random_laws(self, capsys):
        # Without --seed, two-sided-bisim draws with its check's default.
        for argv, seed in ((["--samples", "2"], "7"),
                           (["--samples", "2", "--seed", "9"], "9")):
            code, out, _ = run_cli(capsys, "laws", "two-sided-bisim", *argv)
            assert code == 0 and f"seed: {seed}" in out.splitlines()
        code, out, _ = run_cli(capsys, "laws", "pickn", "--samples", "3")
        assert code == 0 and "seed: 0" in out.splitlines()

    def test_fixture_file(self, capsys, tm_file):
        # --fixture takes a machine file, as every machine argument does.
        runs = [run_cli(capsys, "laws", "restart-cycle", "--fixture", f)
                for f in ("m_rej", tm_file("m_rej"))]
        (code, out, err), (code2, out2, err2) = runs
        assert (code, err) == (code2, err2) == (0, "")
        assert drop_elapsed(out) == drop_elapsed(out2)


class TestUsageErrors:
    # argparse alone exits 2, the `unknown` verdict code; a malformed
    # command line is an input error like any other.
    @pytest.mark.parametrize("argv, msg", [
        (["trs", "trace", "x.trs", "--bogus", "1"],
         "error: irw: unrecognized arguments: --bogus 1\n"),
        (["omega", "member", "nd_right", "--word", "(a)^w", "--fuel", "abc"],
         "error: irw omega: argument --fuel: invalid int value: 'abc'\n"),
        (["laws", "nosuch"], "error: irw laws: argument name: invalid choice:"),
        ([], "error: irw: the following arguments are required: command\n"),
    ])
    def test_exits_3(self, capsys, argv, msg):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(msg)

    @pytest.mark.parametrize("argv", [["--help"], ["laws", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: irw")


# One library call per command family, made to crash.
CRASHES = [
    ("encode", "compile_construction", ["compile", "pickn"]),
    ("turing", "tm_final", ["tm", "rel", "m_acc", "--pair", "1", "1"]),
    ("rewrite", "bounded_reach",
     ["trs", "reach", str(Path(__file__).parent / "golden" / "pickn.trs"),
      "--from", "pickn", "--to", "pickn"]),
    ("omega", "explore_runs",
     ["omega", "member", "nd_right", "--word", "(a)^w"]),
    ("laws", "check_pickn", ["laws", "pickn"]),
]


class TestInternalError:
    def test_crash_exits_4(self, capsys):
        # The recursive term printer overflows the stack on this term.
        deep = "ok(" + "S(" * 600 + "0(end)" + ")" * 600 + ")"
        code, out, err = run_cli(capsys, "trs", "normalize",
                                 str(GOLDEN / "pickn.trs"), "--term", deep)
        assert (code, out) == (4, "")
        assert err.startswith("internal error: RecursionError")
        assert "Traceback" not in err

    @pytest.mark.parametrize("module, name, argv", CRASHES,
                             ids=[c[2][0] for c in CRASHES])
    def test_crash_in_each_command_exits_4(self, capsys, monkeypatch, module,
                                           name, argv):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(f"irw.{module}.{name}", crash)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert err == "internal error: RuntimeError: boom\n"
        assert "VERDICT:" not in out


class TestVerdictExit:
    # A verdict word with no exit code is a fault of the program: it exits
    # 4 and prints no verdict, rather than passing for `unknown`.
    def test_unknown_word_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr("irw.turing.rel_verdict", lambda m, out: "maybe")
        code, out, err = run_cli(capsys, "tm", "rel", "m_acc",
                                 "--pair", "1", "1")
        assert code == 4 and err == "internal error: KeyError: 'maybe'\n"
        assert "steps:" in out and "VERDICT:" not in out

    def test_unknown_law_verdict_exits_4(self, capsys, monkeypatch):
        from irw.laws import LawReport
        monkeypatch.setattr("irw.laws.check_pickn",
                            lambda *a, **kw: LawReport("pickn", "maybe"))
        code, out, err = run_cli(capsys, "laws", "pickn")
        assert (code, out) == (4, "")
        assert err == "internal error: KeyError: 'maybe'\n"


class TestFixtureFallback:
    def test_bare_fixture_names(self, capsys):
        code, out, _ = run_cli(capsys, "tm", "rel", "m_acc", "--pair", "0", "0")
        assert code == 0 and "VERDICT: holds" in out


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys, tm_file):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "omega", "classify",
                                   tm_file("nd_right"), "--word", "ab(ba)^w")
            runs.append((code, out))
        assert runs[0] == runs[1]

    def test_seeded_trace_stable(self, capsys, tmp_path):
        out_file = tmp_path / "pickn.trs"
        run_cli(capsys, "compile", "pickn", "-o", str(out_file))
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "trs", "trace", str(out_file),
                                   "--term", "pickn", "--fuel", "5",
                                   "--strategy", "random", "--seed", "9")
            outs.append(out)
        assert outs[0] == outs[1]


# Each input an action reads, set to two values that must change its
# output: (argv before the input, input, value, other value).  "machine"
# is the positional machine; a value None leaves the input out, and a
# tuple gives a flag its arguments, () for a flag that takes none.
# {halt} names a machine that halts at once, so its value is its
# argument; {pickn} and {loop} name TRS files: the number chooser, and
# f -> a(f), which normalizes only through a closure.  A row whose flag
# is refused both times passes without counting as read.
_DET = ("base", "pebbled", "S", "Sprime")
FLAG_CASES = [
    *[(["compile", c], "machine", "m_acc", "m_rej") for c in _DET],
    *[(["compile", c], "machine", "nd_right", "nd_pong") for c in ("srs", "R")],
    (["compile", "R", "nd_right"], "--as-printed", None, ()),
    (["tm", "run", "m_acc"], "--config", "q0 S S 0", "q0 S 0"),
    (["tm", "fun", "{halt}"], "--arg", "2", "3"),
    (["tm", "rel", "m_acc"], "--pair", ("2", "3"), ("2", "2")),
    (["trs", "trace", "{pickn}", "--fuel", "4"], "--term", "pickn", "c(pickn)"),
    (["trs", "trace", "{pickn}", "--term", "pickn", "--fuel", "4"],
     "--strategy", None, "greedy"),
    (["trs", "trace", "{pickn}", "--term", "pickn", "--fuel", "6",
      "--strategy", "random"], "--seed", "1", "2"),
    (["trs", "normalize", "{loop}"], "--term", "f", "a(f)"),
    (["trs", "normalize", "{loop}", "--term", "f"], "--epochs", "1", "2"),
    (["trs", "reach", "{pickn}", "--to", "ok(S(0(end)))"],
     "--from", "pickn", "c(pickn)"),
    (["trs", "reach", "{pickn}", "--from", "pickn"],
     "--to", "ok(0(end))", "ok(S(0(end)))"),
    (["trs", "reach", "{loop}", "--from", "f", "--to", "rec X . a(X)"],
     "--epochs", "1", "2"),
    (["laws", "two-sided-bisim", "--samples", "2"],
     "--fixture", "m_acc", "m_ext"),
    (["laws", "two-sided-bisim"], "--samples", "1", "2"),
    (["laws", "two-sided-bisim", "--samples", "2"], "--seed", "1", "2"),
    (["laws", "srs-bisim"], "--fixture", "nd_right", "nd_pong"),
    # Refused: srs-bisim draws nothing at random.
    (["laws", "srs-bisim"], "--seed", "1", "2"),
    (["laws", "pickn"], "--samples", "2", "3"),
    (["laws", "restart-cycle", "--fuel", "100"], "--fixture", "m_acc", "m_rej"),
    (["laws", "restart-cycle"], "--fuel", "10", "20"),
    (["laws", "pebbled-reach", "--fuel", "30"], "--fixture", "m_acc", "m_rej"),
    (["laws", "pebbled-reach"], "--fuel", "0", "30"),
    (["laws", "norm-probe"], "--fuel", "0", "3"),
    (["laws", "norm-probe"], "--as-printed", None, ()),
    # Refused: the as-printed restart rule refutes before any search.
    (["laws", "norm-probe", "--as-printed"], "--fuel", "0", "100000"),
    (["laws", "limit-correspondence"], "--fixture", "nd_right", "nd_pong"),
    (["laws", "limit-correspondence"], "--fuel", "1", "100"),
]
# The line of a report that echoes the input rather than answers it.
_ECHO = {"--seed": "seed:", "--samples": "samples:"}


class TestEveryFlagIsRead:
    @pytest.fixture
    def files(self, capsys, tmp_path):
        loop = tmp_path / "loop.trs"
        loop.write_text("sig f/0 a/1\nrule r: f -> a(f)\n")
        pickn = tmp_path / "pickn.trs"
        run_cli(capsys, "compile", "pickn", "-o", str(pickn))
        halt = tmp_path / "halt.tm"
        halt.write_text("machine halt_now\nkind det-two-sided\nstates q0\n"
                        "initial q0\nblank _\nalphabet _ S 0\nend\n")
        return {"pickn": str(pickn), "loop": str(loop), "halt": str(halt)}

    def test_every_accepted_input_changes_the_output(self, capsys, files,
                                                     monkeypatch):
        # norm-probe takes about 13 s at its default fuel, which a run
        # with --as-printed and without --fuel gets; fuel 3 leaves the
        # two answers apart.
        probe = laws.check_norm_probe
        monkeypatch.setattr(probe, "__defaults__", (3, *probe.__defaults__[1:]))
        read = set()
        for head, flag, *values in FLAG_CASES:
            drop = ("elapsed:", _ECHO.get(flag, "elapsed:"))
            runs = []
            for v in values:
                argv = [a.format(**files) for a in head]
                if flag == "machine":
                    argv.append(v)
                elif v is not None:
                    argv += [flag, *([v] if isinstance(v, str) else v)]
                code, out, err = run_cli(capsys, *argv)
                runs.append((code, [line for line in out.splitlines()
                                    if not line.startswith(drop)], err))
            case = (head, flag)
            refused = [err.endswith(f" does not use {flag}\n")
                       for _, _, err in runs]
            if any(refused):
                assert all(refused) and {c for c, _, _ in runs} == {3}, case
                continue
            assert {c for c, _, _ in runs} <= {0, 1, 2}, (case, runs)
            assert runs[0][1] != runs[1][1], case
            read.add((head[0], head[1], flag.lstrip("-").replace("-", "_")))
        want = {(c, a, k.rstrip("?")) for (c, a), ks in cli.USES.items()
                for k in ks}
        assert read == want


GOLDEN = Path(__file__).parent / "golden"

# The README commands in order, run in one directory so that later ones
# read the files earlier ones write: (golden name, exit code, argv).
README_COMMANDS = [
    ("compile_pickn", 0, ["compile", "pickn", "-o", "pickn.trs"]),
    ("compile_S", 0, ["compile", "S", "m_acc", "-o", "s_acc.trs"]),
    ("compile_R_as_printed", 0, ["compile", "R", "nd_pong", "--as-printed"]),
    ("compile_R", 0, ["compile", "R", "nd_right", "-o", "r_right.trs"]),
    ("compile_Sprime", 0,
     ["compile", "Sprime", "m_acc", "-o", "sprime_acc.trs"]),
    ("tm_run", 0,
     ["tm", "run", "m_acc", "--config", "q0 S S 0", "--fuel", "50"]),
    ("tm_rel", 0, ["tm", "rel", "m_acc", "--pair", "2", "3"]),
    ("tm_fun", 1, ["tm", "fun", "m_rej", "--arg", "3"]),
    ("trs_reach", 0, ["trs", "reach", "pickn.trs", "--from", "pickn",
                      "--to", "ok(S(S(S(0(end)))))"]),
    ("trs_normalize", 0,
     ["trs", "normalize", "r_right.trs", "--term",
      "run(xi,q0(rec X. a(X)),D1(rec X. a(X)),D2(rec X. a(X)))",
      "--epochs", "3"]),
    ("trs_trace", 0, ["trs", "trace", "sprime_acc.trs", "--term",
                      "run(T,pickn,pickn)", "--fuel", "60",
                      "--strategy", "greedy"]),
    ("omega_member_right", 0, ["omega", "member", "nd_right", "--word", "(a)^w"]),
    ("omega_member_pong", 1, ["omega", "member", "nd_pong", "--word", "(a)^w"]),
    ("omega_classify_pong", 1,
     ["omega", "classify", "nd_pong", "--word", "(a)^w"]),
    ("laws_pickn", 0, ["laws", "pickn"]),
    ("laws_limit_correspondence", 0,
     ["laws", "limit-correspondence", "--fixture", "nd_right"]),
]
README_FILES = ["pickn.trs", "s_acc.trs", "r_right.trs", "sprime_acc.trs"]


def drop_elapsed(out):
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("elapsed:"))


class TestReadmeGolden:
    def test_readme_commands_match_golden(self, capsys, tmp_path, monkeypatch):
        # `laws norm-probe` is left out: it takes over a minute.
        monkeypatch.chdir(tmp_path)
        for name, want_code, argv in README_COMMANDS:
            code, out, err = run_cli(capsys, *argv)
            assert (name, code, err) == (name, want_code, "")
            assert drop_elapsed(out) == (GOLDEN / f"{name}.out").read_text(), name
        for f in README_FILES:
            assert (tmp_path / f).read_text() == (GOLDEN / f).read_text(), f
