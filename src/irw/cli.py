"""Command-line front end.

Subcommands: compile, tm, trs, omega, laws.  Output is line-oriented text
with a trailing machine-parseable ``VERDICT:`` line, whose word maps to
the exit code through one table, ``VERDICT_EXIT``: 0 success/holds, 1
refuted or negative witness, 2 unknown/exhausted.  3 is an input error (a
malformed command line, an input that its action does not read or one it
cannot run without, both stated in ``USES``, a machine of the wrong kind,
or a path that cannot be read or written), 4 an internal error; ``--help``
exits 0.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from itertools import islice
from pathlib import Path

from . import encode, laws, machines, omega, rewrite, terms, turing

EXIT_INPUT = 3
EXIT_INTERNAL = 4

# Each verdict word's exit code: 0 holds, 1 refuted (a negative witness),
# 2 unknown within the bounds.
VERDICT_EXIT = {
    **dict.fromkeys(("ok", "final", "value", "holds", "closed", "normal-form",
                     "looping", "found", "reached", "accepting", "accepted"),
                    0),
    **dict.fromkeys(("undefined", "fails", "refuted", "oscillating",
                     "rejected_exhausted"), 1),
    **dict.fromkeys(("timeout", "unknown", "exhausted"), 2),
}


def _verdict(word: str) -> int:
    """Print the ``VERDICT:`` line and return its exit code.  The code is
    looked up first, so a word missing from VERDICT_EXIT raises (exit 4)
    before any verdict is printed."""
    code = VERDICT_EXIT[word]
    print(f"VERDICT: {word}")
    return code


# The inputs (argparse dests) each (command, action) reads besides those
# all actions of the command read (compile -o, tm --fuel, trs --fuel,
# --depth and --show-terms, omega --word, --fuel and --width); a law is
# an action of laws.  The action cannot run without those not marked
# "?".  Any other input given, and a required one missing, is refused
# before a file is read.
USES = {
    **{("compile", c): ("machine",) for c in encode.CONSTRUCTIONS},
    ("compile", "pickn"): (),
    ("compile", "R"): ("machine", "as_printed?"),
    ("tm", "run"): ("config",),
    ("tm", "fun"): ("arg",),
    ("tm", "rel"): ("pair",),
    ("trs", "trace"): ("term", "strategy?", "seed?"),
    ("trs", "normalize"): ("term", "epochs?"),
    ("trs", "reach"): ("from", "to", "epochs?"),
    ("omega", "classify"): (),
    ("omega", "member"): (),
    ("laws", "two-sided-bisim"): ("fixture?", "samples?", "seed?"),
    ("laws", "srs-bisim"): ("fixture?",),
    ("laws", "pickn"): ("samples?",),
    ("laws", "restart-cycle"): ("fixture?", "fuel?"),
    ("laws", "pebbled-reach"): ("fixture?", "fuel?"),
    ("laws", "norm-probe"): ("fuel?", "as_printed?"),
    ("laws", "limit-correspondence"): ("fixture?", "fuel?"),
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with CliError, so that it exits 3,
    not argparse's 2 (the ``unknown`` code); subparsers share the class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _check_inputs(args) -> None:
    """Refuse an input given that its action does not read, and one
    missing that it cannot run without (see USES)."""
    cmd, action = args.command, args.action
    uses = {k.rstrip("?") for k in USES[cmd, action]}
    if cmd == "trs" and args.strategy != "random":
        uses.discard("seed")    # only a random trace draws from a seed
    if (cmd, action) == ("laws", "norm-probe") and args.as_printed:
        uses.discard("fuel")    # its restart rule refutes before any search
    others = {k.rstrip("?") for (c, _), ks in USES.items() if c == cmd
              for k in ks} - uses
    # vars(args) holds the inputs in the order the parser defines them; a
    # flag not given is None, or False for --as-printed (a 0 is given).
    given = [k for k, v in vars(args).items()
             if v is not None and v is not False]
    flag = lambda k: k if k == "machine" else "--" + k.replace("_", "-")
    unused = [flag(k) for k in given if k in others]
    if unused:
        raise CliError(f"{cmd} {action} does not use " + ", ".join(unused))
    missing = [flag(k) for k in USES[cmd, action]
               if not k.endswith("?") and k not in given]
    if missing:
        raise CliError(f"{cmd} {action} needs " + ", ".join(missing))


def _read(spec: str) -> str:
    """The text of a file the user named, or an input error."""
    try:
        return Path(spec).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        why = e.strerror if isinstance(e, OSError) else e
        raise CliError(f"cannot read {spec!r}: {why}") from None


def _load_machine(spec: str, kind=None):
    """The machine in file ``spec``, else the fixture named ``spec`` (a
    trailing .tm dropped), refused unless of class ``kind`` when given.
    An empty name is refused first: as a path it names the current
    directory."""
    if not spec:
        raise CliError("no machine given: the machine name is empty")
    if Path(spec).exists():
        m = machines.parse_machine(_read(spec))
    else:
        m = machines.load_fixture(spec.removesuffix(".tm"))
    if kind is not None and not isinstance(m, kind):
        raise CliError(f"{spec} is a {m.KIND} machine, not {kind.KIND}")
    return m


def cmd_compile(args) -> int:
    m = _load_machine(args.machine) if args.machine else None
    with warnings.catch_warnings(record=True) as ws:
        warnings.simplefilter("always")
        trs, start = encode.compile_construction(
            args.action, m, as_printed=args.as_printed)
    for w in ws:
        print(f"warning: {w.message}")
    text = encode.emit_trs_file(trs)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise CliError(f"cannot write {args.output!r}: "
                           f"{e.strerror or e}") from None
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    print(f"rules: {len(trs.rules)}")
    if start is not None:
        print(f"start: {terms.print_term(start, trs.sig)}")
    return _verdict("ok")


def cmd_tm(args) -> int:
    m = _load_machine(args.machine, turing.TmSpec)
    fuel = args.fuel
    if args.action == "run":
        if fuel < 0:
            raise CliError("fuel must be >= 0")
        c = turing.parse_config(m, args.config)
        print(turing.display_config(c))
        run, steps = turing.tm_run(m, c), 0
        for c in islice(run, fuel):
            print(turing.display_config(c))
            steps += 1
        print(f"steps: {steps}")
        return _verdict("final" if next(run, None) is None else "timeout")
    if args.action == "fun":
        got = turing.eval_fun(m, args.arg, fuel)
        if got.kind == "value":
            print(f"value: {got.value}")
        return _verdict(got.kind)
    out = turing.tm_final(m, turing.initial_rel_config(m, *args.pair), fuel)
    print(turing.display_config(out.config))
    print(f"steps: {out.steps}")
    return _verdict(turing.rel_verdict(m, out))


def _parse_ground(trs: rewrite.Trs, text: str) -> terms.Term:
    return terms.parse_term(text, trs.sig, ground=True)


def cmd_trs(args) -> int:
    trs = rewrite.parse_trs(_read(args.trs), name=Path(args.trs).stem)
    bounds = {"fuel": args.fuel, "depth_bound": args.depth}
    if args.action == "trace":
        t = _parse_ground(trs, args.term)
        seed = None
        if args.strategy == "random":    # seed 7 unless --seed is given
            seed = 7 if args.seed is None else args.seed
        greedy = laws.greedy_order if args.strategy == "greedy" else None
        run = rewrite.run_strategy(trs, t, seed=seed, order=greedy, **bounds)
        print(rewrite.render_trace(run.trace, args.show_terms, trs.sig))
        cl = rewrite.close_limit(run.trace.all_steps).closure
        if cl is not None:
            print(f"omega-limit: {terms.print_term(cl.limit, trs.sig)}")
            cert = cl.certificate
            print(f"pump: start={cert.cycle_start} len={cert.cycle_length} "
                  f"context={cert.context_growth} "
                  f"depths={list(cert.min_depth_profile)}")
            return _verdict("closed")
        if not run.fuel_exhausted:
            final = run.trace.final
            if rewrite.is_normal_form(trs, final):
                return _verdict("normal-form")
            # No productive redex within --depth; one below it is unknown.
            loops = rewrite.only_self_loops(trs, final)
            return _verdict("looping" if loops else "unknown")
        depth, prefix = rewrite.stable_prefix(run.trace, args.depth)
        print(f"stable-prefix depth: {depth}")
        if prefix is not None:
            print(f"stable-prefix: {terms.print_term(prefix, trs.sig)}")
        return _verdict("exhausted")
    if args.epochs is not None:
        bounds["max_epochs"] = args.epochs
    if args.action == "normalize":
        res = rewrite.bounded_normalize(
            trs, _parse_ground(trs, args.term), **bounds)
    else:
        src = _parse_ground(trs, vars(args)["from"])
        res = rewrite.bounded_reach(trs, src, _parse_ground(trs, args.to),
                                    **bounds)
    if res.trace is None:
        for k, v in sorted(res.diagnostics.items()):
            print(f"{k}: {v}")
        return _verdict("exhausted")
    print(rewrite.render_trace(res.trace, args.show_terms, trs.sig))
    if args.action == "normalize":
        print(f"normal-form: {terms.print_term(res.normal_form, trs.sig)}")
        return _verdict("found")
    print(f"steps: {res.trace.total_steps}")
    return _verdict("reached")


def cmd_omega(args) -> int:
    m = _load_machine(args.machine, omega.NdTmSpec)
    w = omega.parse_word(args.word, m.alphabet)
    runs = omega.explore_runs(m, w, fuel=args.fuel, width=args.width)
    print(f"runs explored: {len(runs)}")
    for i, r in enumerate(runs):
        line = f"run {i}: {len(r.configs) - 1} steps, {r.status}"
        if r.lasso:
            line += (f", lasso start={r.lasso.cycle_start} "
                     f"len={r.lasso.cycle_length} d={r.lasso.displacement:+d}")
        print(line)
    if args.action == "member":
        return _verdict(omega._membership(runs).kind)
    classes = [omega.classify_run(r) for r in runs]
    for i, c in enumerate(classes):
        print(f"run {i}: complete={c.complete} oscillating={c.oscillating} "
              f"accepting={c.accepting}")
    certain = {c.accepting for c in classes} - {"unknown"}
    if not certain:
        return _verdict("unknown")
    return _verdict("accepting" if "yes" in certain else "oscillating")


def cmd_laws(args) -> int:
    # Only the flags given are passed: each check states its defaults.
    opts = {k: v for k in ("seed", "samples", "fuel", "as_printed")
            if (v := vars(args)[k]) is not None and v is not False}
    for k in ("samples", "fuel"):
        if opts.get(k, 0) < 0:
            raise CliError(f"{k} must be >= 0")
    name = args.action
    if name == "pickn":    # its one flag, --samples, is its largest n
        rep = laws.check_pickn(*opts.values())
    elif name == "norm-probe":
        rep = laws.check_norm_probe(_load_machine("nd_right"),
                                    _load_machine("nd_pong"), **opts)
    else:
        # The kind of machine each other law takes, and its fixture
        # without --fixture.
        kind, default = {
            "srs-bisim": (omega.NdTmSpec, "nd_pong"),
            "limit-correspondence": (omega.NdTmSpec, "nd_right"),
        }.get(name, (turing.TmSpec, "m_acc"))
        m = _load_machine(default if args.fixture is None else args.fixture,
                          kind)
        if name == "limit-correspondence":
            rep = laws.check_limit_correspondence(
                m, omega.parse_word("(a)^w", m.alphabet), **opts)
        else:
            rep = {"two-sided-bisim": laws.check_two_sided_bisim,
                   "srs-bisim": laws.check_srs_bisim,
                   "restart-cycle": laws.check_restart_cycle,
                   "pebbled-reach": laws.check_pebbled_reach}[name](m, **opts)
    code = VERDICT_EXIT[rep.verdict]    # render_report prints the verdict
    print(laws.render_report(rep))
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="irw", description="infinitary rewriting workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a machine into a rewrite system")
    c.add_argument("action", metavar="construction",
                   choices=encode.CONSTRUCTIONS)
    c.add_argument("machine", nargs="?", help="machine file or fixture name")
    c.add_argument("-o", "--output")
    c.add_argument("--as-printed", action="store_true")
    c.set_defaults(fn=cmd_compile)

    t = sub.add_parser("tm", help="run a deterministic two-sided machine")
    t.add_argument("action", choices=["run", "fun", "rel"])
    t.add_argument("machine")
    t.add_argument("--config")
    t.add_argument("--arg", type=int)
    t.add_argument("--pair", nargs=2, type=int, metavar=("N", "K"))
    t.add_argument("--fuel", type=int, default=10_000)
    t.set_defaults(fn=cmd_tm)

    r = sub.add_parser("trs", help="trace, normalize or reach on a rewrite system")
    r.add_argument("action", choices=["trace", "normalize", "reach"])
    r.add_argument("trs")
    r.add_argument("--term")
    r.add_argument("--from")
    r.add_argument("--to")
    r.add_argument("--fuel", type=int, default=rewrite.DEFAULT_FUEL)
    r.add_argument("--epochs", type=int)
    r.add_argument("--depth", type=int, default=rewrite.DEFAULT_DEPTH_BOUND)
    r.add_argument("--strategy", choices=["random", "greedy"])
    r.add_argument("--seed", type=int)
    r.add_argument("--show-terms", action="store_true")
    r.set_defaults(fn=cmd_trs)

    o = sub.add_parser("omega", help="explore runs of a one-sided machine")
    o.add_argument("action", choices=["classify", "member"])
    o.add_argument("machine")
    o.add_argument("--word", required=True)
    o.add_argument("--fuel", type=int, default=200)
    o.add_argument("--width", type=int, default=64)
    o.set_defaults(fn=cmd_omega)

    l = sub.add_parser("laws", help="run an executable law over the fixtures")
    l.add_argument("action", metavar="name",
                   choices=[a for c, a in USES if c == "laws"])
    l.add_argument("--fixture", help="machine file or fixture name")
    l.add_argument("--seed", type=int)
    l.add_argument("--samples", type=int)
    l.add_argument("--fuel", type=int)
    l.add_argument("--as-printed", action="store_true")
    l.set_defaults(fn=cmd_laws)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_inputs(args)
        return args.fn(args)
    except (CliError, terms.TermError, turing.MachineError,
            encode.EncodeError, laws.LawError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # a crash must not exit with a verdict code
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
