"""Every input refusal of the package, one parametrized test per module.

Each case gives malformed input and the exact message it is refused with;
where a command reads that input, the command must print the message as
``error: ...`` and exit 3."""

import pytest

from irw.cli import main
from irw.encode import (
    EncodeError, build_S, compile_construction, decode_config,
    emit_trs_file, pebble_trs, pickn_trs,
)
from irw.laws import (
    LawError, check_limit_correspondence, check_norm_probe, check_pebbled_reach,
    check_pickn, check_restart_cycle, check_two_sided_bisim, greedy_cycle_run,
)
from irw.machines import load_fixture, parse_machine
from irw.omega import NdConfig, explore_runs, parse_word
from irw.rewrite import (
    Epoch, Rule, Trs, TrsError, bounded_normalize, bounded_reach,
    find_redexes, parse_trs, run_strategy, step_reachability,
)
from irw.terms import (
    Signature, Symbol, TermError, TermSyntaxError, app, parse_term,
    truncate_prefix, var,
)
from irw.turing import MachineError, TmSpec, make_config, tm_final

PICKN = pickn_trs()
START = parse_term("pickn", PICKN.sig)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def pickn_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("refusals") / "pickn.trs"
    assert main(["compile", "pickn", "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("text, message", [
    ("ok(S(0(end))) $", "unexpected character '$' (line 1, col 15)"),
    ("ok(S(0(end)", "unexpected end of input (line 1, col 11)"),
    ("", "unexpected end of input (line 1, col 1)"),
    ("ok(0(end) # note\n ,", "unexpected end of input (line 2, col 2)"),
    ("rec X c(X)", "expected '.', found 'c' (line 1, col 7)"),
    ("ok(,)", "expected a term, found ',' (line 1, col 4)"),
    ("ok(end end)", "expected ',' or ')', found 'end' (line 1, col 8)"),
    ("ok(\n  0(end)\n  end)",
     "expected ',' or ')', found 'end' (line 3, col 3)"),
    ("rec x . c(x)", "'rec' binder must be an uppercase identifier, "
                     "found 'x' (line 1, col 5)"),
    ("ok(0(end)) end", "trailing input 'end' (line 1, col 12)"),
], ids=["character", "end", "empty", "end-after-comment", "dot", "term",
        "comma", "comma-line-3", "binder", "trailing"])
def test_parser(capsys, pickn_file, text, message):
    for ground in (False, True):
        with pytest.raises(TermError) as err:
            parse_term(text, PICKN.sig, ground)
        assert str(err.value) == message
    code, out, err = run_cli(capsys, "trs", "trace", pickn_file, "--term", text)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def _refused(capsys, tmp_path, error, message, call, argv):
    """call raises error with message; argv, where given, exits 3 with it.
    An argv item (suffix, text) is written to a file and passed as its
    path."""
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
    if argv is None:
        return
    args = []
    for k, a in enumerate(argv):
        if isinstance(a, tuple):
            path = tmp_path / f"input{k}{a[0]}"
            path.write_text(a[1])
            a = str(path)
        args.append(a)
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def _trace(trs_text):
    return ["trs", "trace", (".trs", trs_text), "--term", "a"]


F2 = Symbol("f", 2)
DUPLICATE = "sig f/1\nrule r: f(x) -> x\nrule r: f(x) -> f(x)\n"


@pytest.mark.parametrize("call, message, argv", [
    (lambda: Signature([Symbol("f", 1), F2]),
     "symbol f redeclared with arity 2 (was 1)",
     _trace("sig f/1 f/2 a/0\nrule r: a -> a\n")),
    (lambda: app(F2, var("x")), "f expects 2 arguments, got 1", None),
    (lambda: var("x y"), "bad variable name 'x y'", None),
    (lambda: truncate_prefix(var("x"), -1), "negative truncation depth", None),
], ids=["redeclared", "app-arity", "var-name", "truncation-depth"])
def test_terms(capsys, tmp_path, call, message, argv):
    _refused(capsys, tmp_path, TermError, message, call, argv)


@pytest.mark.parametrize("call, message, argv", [
    (lambda: parse_trs(DUPLICATE), "duplicate rule id r", _trace(DUPLICATE)),
    (lambda: parse_trs("sig f/1\nrule r: f(x) -> y\n"),
     "rule r: rhs variables ['y'] not in lhs",
     _trace("sig f/1\nrule r: f(x) -> y\n")),
    (lambda: Trs(Signature(), [Rule("r", app(Symbol("f", 1), var("x")),
                                    var("x"))]),
     "rule r: symbol f/1 not declared in signature", None),
    (lambda: PICKN.rule("nosuch"), "no rule named 'nosuch'", None),
    (lambda: find_redexes(PICKN, START, -1), "depth_bound must be >= 0",
     _trace("sig a/0\nrule r: a -> a\n") + ["--depth", "-1"]),
    (lambda: run_strategy(PICKN, START, fuel=-1), "fuel must be >= 0",
     _trace("sig a/0\nrule r: a -> a\n") + ["--fuel", "-1"]),
    (lambda: bounded_reach(PICKN, START, var("x")),
     "reach target must be ground", None),
    (lambda: step_reachability(PICKN, var("x")),
     "search requires a ground start term", None),
    (lambda: step_reachability(PICKN, START, fuel=-4), "fuel must be >= 0",
     None),
    (lambda: bounded_normalize(PICKN, parse_term("c(x)", PICKN.sig)),
     "search requires a ground start term", None),
    (lambda: Epoch(()).end, "empty epoch has no end term", None),
], ids=["duplicate-rule", "rhs-variable", "undeclared", "no-such-rule",
        "redex-depth", "strategy-fuel", "reach-target",
        "reachability-start", "reachability-fuel", "normalize-start",
        "empty-epoch"])
def test_rewrite(capsys, tmp_path, call, message, argv):
    _refused(capsys, tmp_path, TrsError, message, call, argv)


@pytest.mark.parametrize("line, message", [
    ("sig f/1 g", "bad sig item 'g', expected name/arity (line 2, col 9)"),
    ("sig f/1,g/2",
     "bad sig item 'f/1,g/2', expected name/arity (line 2, col 5)"),
    ("sig f/1 g/x", "bad sig item 'g/x', expected name/arity (line 2, col 9)"),
    ("signature f/1", "bad TRS line: 'signature f/1' (line 2, col 1)"),
    ("sigh", "bad TRS line: 'sigh' (line 2, col 1)"),
], ids=["no-arity", "comma", "arity", "signature", "sigh"])
def test_sig_line(capsys, tmp_path, line, message):
    # A sig line's first word is sig, and every later one is name/arity.
    text = f"# construction: none\n{line}\nrule r: f(a) -> a\n"
    _refused(capsys, tmp_path, TermSyntaxError, message,
             lambda: parse_trs(text), _trace(text))


BASE_M_EXT = emit_trs_file(compile_construction("base", load_fixture("m_ext"))[0])


@pytest.mark.parametrize("text, message", [
    ("sig f/1 a/0\n\n# rule r: f(a) -> a\nrule r2: f(a)   ->   f(a, a)\n",
     "f expects 1 arguments, got 2 (line 4, col 22)"),
    ("sig f/1 a/0\n\nrule r2: f(x) -> f(%)\n",
     "unexpected character '%' (line 3, col 20)"),
    ("sig f/1\nrule r: f(x) -> g(x)\n", "unknown symbol 'g' (line 2, col 17)"),
    # Without its sig line, q0 in q0(x, end) is refused, not declared
    # with end read as a variable.
    (BASE_M_EXT.replace("sig q0/2 _/1 S/1 0/1 end/0\n", ""),
     "unknown symbol 'q0' (line 4, col 14)"),
], ids=["arity", "character", "unknown-symbol", "base-m_ext-without-sig"])
def test_rule_side(capsys, tmp_path, text, message):
    # A rule side's syntax error, an undeclared symbol among them, gives
    # its line and column in the file.
    _refused(capsys, tmp_path, TermSyntaxError, message,
             lambda: parse_trs(text), _trace(text))


MACHINE = """machine m
kind det-two-sided
states q0
initial q0
blank _
alphabet _ S 0
delta q0 _ -> q0 S R
end
"""


def _edited(old, new):
    assert old in MACHINE
    return MACHINE.replace(old, new)


@pytest.mark.parametrize("text, message", [
    (MACHINE + "states q1\n", "line 9: content after 'end'"),
    (_edited("-> q0 S R", "q0 S R"),
     "line 7: bad delta line 'delta q0 _ q0 S R'"),
    (_edited("machine m", "machine m n"), "line 1: 'machine' takes one value"),
    (_edited("kind det-two-sided", "kind"), "line 2: 'kind' takes one value"),
    (_edited("initial q0", "initial q0 q0"),
     "line 4: 'initial' takes one value"),
    (_edited("blank _", "blank _ S"), "line 5: 'blank' takes one value"),
    (_edited("alphabet", "symbols"), "line 6: unknown directive 'symbols'"),
    (_edited("end\n", ""), "missing 'end' line"),
    (_edited("det-two-sided", "tri-sided"), "unknown machine kind 'tri-sided'"),
], ids=["after-end", "delta", "machine", "kind", "initial", "blank",
        "directive", "end", "machine-kind"])
def test_machines(capsys, tmp_path, text, message):
    _refused(capsys, tmp_path, MachineError, message,
             lambda: parse_machine(text),
             ["tm", "run", (".tm", text), "--config", "q0"])


M_ACC = load_fixture("m_acc")
NO_S = TmSpec("plain", ("q0",), "q0", "_", ("_", "a"),
              {("q0", "_"): ("q0", "a", "R")})


@pytest.mark.parametrize("error, call, message, argv", [
    (MachineError, lambda: make_config(M_ACC, (), "nosuch", ()),
     "unknown state 'nosuch'", None),
    (MachineError, lambda: make_config(M_ACC, ("x",), "q0", ()),
     "unknown tape symbol 'x'", ["tm", "run", "m_acc", "--config", "x q0"]),
    (MachineError, lambda: tm_final(M_ACC, make_config(M_ACC, (), "q0", ()), -1),
     "fuel must be >= 0",
     ["tm", "run", "m_acc", "--config", "q0", "--fuel", "-1"]),
    (EncodeError, lambda: decode_config(
        M_ACC, parse_term("S(end)", Signature([Symbol("S", 1), Symbol("end", 0)]))),
     "configuration term must be q(left, right) at the root", None),
    (EncodeError, lambda: pebble_trs(NO_S),
     "pebbled construction needs S and 0 in the alphabet",
     ["compile", "pebbled", (".tm", MACHINE.replace("S 0", "a").replace(
         "q0 S R", "q0 a R"))]),
    # The command refuses both inputs as unused before compiling.
    (EncodeError, lambda: compile_construction("pickn", M_ACC),
     "construction 'pickn' takes no machine", None),
    (EncodeError, lambda: compile_construction("S", M_ACC, as_printed=True),
     "construction 'S' has no as-printed form", None),
], ids=["state", "symbol", "fuel", "decode-root", "pebbled-alphabet",
        "pickn-machine", "as-printed"])
def test_turing_and_encode(capsys, tmp_path, error, call, message, argv):
    _refused(capsys, tmp_path, error, message, call, argv)


ND_RIGHT = load_fixture("nd_right")
A_OMEGA = parse_word("(a)^w")


def _member(*flags):
    return ["omega", "member", "nd_right", "--word", "(a)^w", *flags]


@pytest.mark.parametrize("call, message, argv", [
    (lambda: A_OMEGA.at(-1), "negative tape position", None),
    (lambda: parse_word("ab"), "bad omega-word syntax 'ab'",
     ["omega", "member", "nd_right", "--word", "ab"]),
    (lambda: NdConfig(A_OMEGA, "q0", -1),
     "head must be >= 0 on a one-sided tape", None),
    (lambda: explore_runs(ND_RIGHT, A_OMEGA, fuel=0),
     "fuel and width must be >= 1", _member("--fuel", "0")),
    (lambda: explore_runs(ND_RIGHT, A_OMEGA, width=0),
     "fuel and width must be >= 1", _member("--width", "0")),
], ids=["position", "word", "head", "fuel", "width"])
def test_omega(capsys, tmp_path, call, message, argv):
    _refused(capsys, tmp_path, MachineError, message, call, argv)


ND_PONG = load_fixture("nd_pong")


# The command line refuses a negative --fuel or --samples itself, in its
# own words, and sets no other bound of these laws.
@pytest.mark.parametrize("call, message", [
    (lambda: check_two_sided_bisim(M_ACC, samples=-1),
     "two-sided-bisim needs samples >= 0, got -1"),
    (lambda: check_pickn(-1), "pickn needs n_max >= 0, got -1"),
    (lambda: check_pickn(3, fuel=-1), "pickn needs fuel >= 0, got -1"),
    (lambda: check_restart_cycle(M_ACC, firings=-1),
     "restart-cycle needs firings >= 0, got -1"),
    (lambda: check_restart_cycle(M_ACC, fuel=-1),
     "restart-cycle needs fuel >= 0, got -1"),
    (lambda: check_pebbled_reach(M_ACC, firings=-1),
     "pebbled-reach needs firings >= 0, got -1"),
    (lambda: check_pebbled_reach(M_ACC, fuel=-1),
     "pebbled-reach needs fuel >= 0, got -1"),
    (lambda: check_norm_probe(ND_RIGHT, ND_PONG, fuel=-1),
     "norm-probe needs fuel >= 0, got -1"),
    (lambda: check_norm_probe(ND_RIGHT, ND_PONG, epochs=-1),
     "norm-probe needs epochs >= 0, got -1"),
    (lambda: check_limit_correspondence(ND_PONG, A_OMEGA, fuel=-2),
     "limit-correspondence needs fuel >= 0, got -2"),
    (lambda: greedy_cycle_run(*build_S(M_ACC), -5),
     "greedy-cycle-run needs fuel >= 0, got -5"),
], ids=["two-sided-samples", "pickn-n", "pickn-fuel", "restart-firings", "restart-fuel",
        "pebbled-firings", "pebbled-fuel", "norm-probe-fuel",
        "norm-probe-epochs", "limit-correspondence-fuel",
        "greedy-cycle-run-fuel"])
def test_laws(capsys, tmp_path, call, message):
    _refused(capsys, tmp_path, LawError, message, call, None)
