"""Command-line front end.

Subcommands: compile, tm, trs, omega, laws.  Output is line-oriented text
with a trailing machine-parseable ``VERDICT:`` line.  Exit codes are
uniform across commands: 0 success/holds, 1 refuted or negative witness,
2 unknown/exhausted, 3 input error (among them a ``trs`` or ``laws`` flag
that the action or law does not use), 4 internal error.  IRW_SEED provides
the default seed of ``trs trace --strategy random`` and of the laws that
draw at random.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import encode, laws, machines, omega, rewrite, terms, turing

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    pass


def _env_seed() -> int:
    text = os.environ.get("IRW_SEED", "7")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"IRW_SEED must be an integer, got {text!r}") from None


def _load_machine(spec: str):
    p = Path(spec)
    if p.exists():
        return machines.parse_machine(p.read_text())
    name = spec[:-3] if spec.endswith(".tm") else spec
    if name in machines.FIXTURES:
        return machines.parse_machine(machines.fixture_text(name))
    raise CliError(f"no machine file {spec!r} (and not a fixture name)")


def _load_trs(spec: str) -> rewrite.Trs:
    p = Path(spec)
    if not p.exists():
        raise CliError(f"no TRS file {spec!r}")
    return rewrite.parse_trs(p.read_text(), name=p.stem)


def _print_warnings(ws) -> None:
    for w in ws:
        print(f"warning: {w.message}")


def cmd_compile(args) -> int:
    m = None
    if args.construction != "pickn":
        if not args.machine:
            raise CliError(f"construction {args.construction} needs a machine file")
        m = _load_machine(args.machine)
    with warnings.catch_warnings(record=True) as ws:
        warnings.simplefilter("always")
        trs, start = encode.compile_construction(
            args.construction, m, as_printed=args.as_printed)
    _print_warnings(ws)
    text = encode.emit_trs_file(trs)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    print(f"rules: {len(trs.rules)}")
    if start is not None:
        print(f"start: {terms.print_term(start)}")
    print("VERDICT: ok")
    return EXIT_OK


def cmd_tm(args) -> int:
    m = _load_machine(args.machine)
    if not isinstance(m, turing.TmSpec):
        raise CliError("tm commands need a det-two-sided machine")
    fuel = args.fuel
    if args.action == "run":
        if not args.config:
            raise CliError("tm run needs --config")
        if fuel < 0:
            raise CliError("fuel must be >= 0")
        c = turing.parse_config(m, args.config)
        print(turing.display_config(c))
        steps = 0
        while steps < fuel:
            nxt = turing.tm_step(m, c)
            if nxt is None:
                break
            c = nxt
            steps += 1
            print(turing.display_config(c))
        final = turing.tm_step(m, c) is None
        print(f"steps: {steps}")
        print(f"VERDICT: {'final' if final else 'timeout'}")
        return EXIT_OK if final else EXIT_UNKNOWN
    if args.action == "fun":
        if args.arg is None:
            raise CliError("tm fun needs --arg N")
        got = turing.eval_fun(m, args.arg, fuel)
        if got.kind == "value":
            print(f"value: {got.value}")
            print("VERDICT: value")
            return EXIT_OK
        print(f"VERDICT: {got.kind}")
        return EXIT_UNKNOWN if got.kind == "unknown" else EXIT_NEGATIVE
    if args.action == "rel":
        if not args.pair:
            raise CliError("tm rel needs --pair N K")
        n, k = args.pair
        c = turing.initial_rel_config(m, n, k)
        out = turing.tm_final(m, c, fuel)
        print(turing.display_config(out.config))
        print(f"steps: {out.steps}")
        verdict = turing.rel_verdict(m, out)
        print(f"VERDICT: {verdict}")
        return {"holds": EXIT_OK, "fails": EXIT_NEGATIVE}.get(verdict, EXIT_UNKNOWN)
    raise CliError(f"unknown tm action {args.action}")


def _parse_ground(trs: rewrite.Trs, text: str) -> terms.Term:
    return terms.parse_term(text, trs.sig, ground=True)


# The flags each trs action reads besides --fuel, --depth and --show-terms;
# any other flag given is refused rather than ignored.
TRS_FLAGS = {"trace": ("term", "strategy", "seed"),
             "normalize": ("term", "epochs"),
             "reach": ("from", "to", "epochs")}


def cmd_trs(args) -> int:
    given = {"term": args.term, "from": args.src, "to": args.dst,
             "epochs": args.epochs, "strategy": args.strategy,
             "seed": args.seed}
    unused = [k for k, v in given.items()
              if v is not None and k not in TRS_FLAGS.get(args.action, ())]
    if unused:
        raise CliError(f"trs {args.action} does not use "
                       + ", ".join("--" + k for k in unused))
    epochs = (rewrite.DEFAULT_MAX_EPOCHS if args.epochs is None
              else args.epochs)
    trs = _load_trs(args.trs)
    if args.action == "trace":
        if not args.term:
            raise CliError("trs trace needs --term")
        t = _parse_ground(trs, args.term)
        seeded = args.strategy == "random"
        seed = args.seed
        if seed is None:
            seed = _env_seed() if seeded else 0
        run = rewrite.run_strategy(
            trs, t, strategy="seeded-random" if seeded else "leftmost-outermost",
            fuel=args.fuel, depth_bound=args.depth, seed=seed,
            order=laws.greedy_order if args.strategy == "greedy" else None)
        print(rewrite.render_trace(run.trace, show_terms=args.show_terms))
        steps = run.trace.all_steps
        attempt = rewrite.close_limit(steps) if len(steps) >= 2 else None
        if attempt is not None and attempt.closure is not None:
            cl = attempt.closure
            print(f"omega-limit: {terms.print_term(cl.limit)}")
            cert = cl.certificate
            print(f"pump: start={cert.cycle_start} len={cert.cycle_length} "
                  f"context={cert.context_growth} "
                  f"depths={list(cert.min_depth_profile)}")
            print("VERDICT: closed")
            return EXIT_OK
        if not run.fuel_exhausted:
            final = run.trace.final
            if rewrite.is_normal_form(trs, final):
                print("VERDICT: normal-form")
            else:
                print("VERDICT: looping")
            return EXIT_OK
        depth, prefix = rewrite.stable_prefix(run.trace, args.depth)
        print(f"stable-prefix depth: {depth}")
        if prefix is not None:
            print(f"stable-prefix: {terms.print_term(prefix)}")
        print("VERDICT: exhausted")
        return EXIT_UNKNOWN
    if args.action == "normalize":
        if not args.term:
            raise CliError("trs normalize needs --term")
        t = _parse_ground(trs, args.term)
        res = rewrite.bounded_normalize(trs, t, fuel=args.fuel,
                                        max_epochs=epochs,
                                        depth_bound=args.depth)
        if res.found:
            print(rewrite.render_trace(res.trace, show_terms=args.show_terms))
            print(f"normal-form: {terms.print_term(res.normal_form)}")
            print("VERDICT: found")
            return EXIT_OK
        for k, v in sorted(res.diagnostics.items()):
            print(f"{k}: {v}")
        print("VERDICT: exhausted")
        return EXIT_UNKNOWN
    if args.action == "reach":
        if not args.src or not args.dst:
            raise CliError("trs reach needs --from and --to")
        s = _parse_ground(trs, args.src)
        t = _parse_ground(trs, args.dst)
        res = rewrite.bounded_reach(trs, s, t, fuel=args.fuel,
                                    max_epochs=epochs,
                                    depth_bound=args.depth)
        if res.reached:
            print(rewrite.render_trace(res.trace, show_terms=args.show_terms))
            print(f"steps: {res.trace.total_steps}")
            print("VERDICT: reached")
            return EXIT_OK
        for k, v in sorted(res.diagnostics.items()):
            print(f"{k}: {v}")
        print("VERDICT: exhausted")
        return EXIT_UNKNOWN
    raise CliError(f"unknown trs action {args.action}")


def cmd_omega(args) -> int:
    m = _load_machine(args.machine)
    if not isinstance(m, omega.NdTmSpec):
        raise CliError("omega commands need a nondet-one-sided machine")
    w = omega.parse_word(args.word, m.alphabet)
    runs = omega.explore_runs(m, w, fuel=args.fuel, width=args.width)
    print(f"runs explored: {len(runs)}")
    for i, r in enumerate(runs):
        line = f"run {i}: {len(r.configs) - 1} steps, {r.status}"
        if r.lasso:
            line += (f", lasso start={r.lasso.cycle_start} "
                     f"len={r.lasso.cycle_length} d={r.lasso.displacement:+d}")
        print(line)
    if args.action == "classify":
        classes = [omega.classify_run(r) for r in runs]
        certain = [c for c in classes if c.accepting != "unknown"]
        for i, c in enumerate(classes):
            print(f"run {i}: complete={c.complete} oscillating={c.oscillating} "
                  f"accepting={c.accepting}")
        if not certain:
            print("VERDICT: unknown")
            return EXIT_UNKNOWN
        if any(c.accepting == "yes" for c in certain):
            print("VERDICT: accepting")
            return EXIT_OK
        print("VERDICT: oscillating")
        return EXIT_NEGATIVE
    if args.action == "member":
        got = omega._membership(runs)
        print(f"VERDICT: {got.kind}")
        return {"accepted": EXIT_OK,
                "rejected_exhausted": EXIT_NEGATIVE}.get(got.kind, EXIT_UNKNOWN)
    raise CliError(f"unknown omega action {args.action}")


def cmd_laws(args) -> int:
    seed = args.seed
    if seed is None and "seed" in laws.LAW_ARGS[args.name]:
        seed = _env_seed()
    rep = laws.run_law(args.name, fixture=args.fixture, seed=seed,
                       samples=args.samples, fuel=args.fuel,
                       as_printed=args.as_printed)
    print(laws.render_report(rep))
    return {"holds": EXIT_OK, "refuted": EXIT_NEGATIVE}.get(rep.verdict,
                                                            EXIT_UNKNOWN)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="irw", description="infinitary rewriting workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a machine into a rewrite system")
    c.add_argument("construction", choices=encode.CONSTRUCTIONS)
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
    r.add_argument("--from", dest="src")
    r.add_argument("--to", dest="dst")
    r.add_argument("--fuel", type=int, default=rewrite.DEFAULT_FUEL)
    r.add_argument("--epochs", type=int)
    r.add_argument("--depth", type=int, default=rewrite.DEFAULT_DEPTH_BOUND)
    r.add_argument("--strategy",
                   choices=["lo", "leftmost-outermost", "random", "greedy"])
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
    l.add_argument("name", choices=list(laws.LAW_NAMES))
    l.add_argument("--fixture")
    l.add_argument("--seed", type=int)
    l.add_argument("--samples", type=int)
    l.add_argument("--fuel", type=int)
    l.add_argument("--as-printed", action="store_true")
    l.set_defaults(fn=cmd_laws)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
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
