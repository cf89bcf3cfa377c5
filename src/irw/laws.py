"""Executable desk-scale checks of the construction behavior, on the
shipped fixtures and on seeded random machines.

Every check returns a LawReport with verdict ``holds``, ``refuted`` (with
a replayable witness) or ``unknown`` (bounds too small).  Checks only ever
claim the bounded, falsifiable face of a property; the unbounded
directions are out of reach by design and are never reported as holds.
All reports are deterministic given fixtures, seed and bounds.
"""

from __future__ import annotations

import random
import time
import warnings
from collections import deque
from itertools import islice
from typing import Optional, Sequence

from .encode import (
    build_R, build_S, build_S_prime, nd_to_srs, phi, pickn_trs,
    tm_to_trs, encode_config, decode_config,
)
from .omega import (
    NdConfig, NdTmSpec, OmegaWord, membership_semidecide, nd_steps,
    parse_word,
)
from .rewrite import (
    DEFAULT_DEPTH_BOUND, Rule, Trs, apply_step, bounded_normalize, canon_key,
    find_redexes, match, stable_prefix, step_reachability, strategy_steps,
    Trace, Epoch,
)
from .terms import (
    Term, app, is_var, parse_term, print_term, replace_at, subterm_at,
    term_symbols,
)
from .turing import TmConfig, TmSpec, make_config, display_config, tm_step

__all__ = [
    "LawReport", "LawError", "render_report",
    "check_two_sided_bisim", "check_srs_bisim", "check_pickn",
    "check_restart_cycle", "check_pebbled_reach", "check_norm_probe",
    "check_limit_correspondence", "gen_det_machine", "gen_nd_machine",
    "gen_det_config", "mutate_first_write", "greedy_order",
    "greedy_cycle_run",
]


class LawError(ValueError):
    """A bound out of range: every check refuses a negative bound."""


class LawReport:
    __slots__ = ("name", "verdict", "witness", "samples", "seed", "elapsed", "lines")

    def __init__(self, name: str, verdict: str, witness: Optional[str] = None,
                 samples: int = 0, seed: int = 0, elapsed: float = 0.0,
                 lines: Optional[list] = None):
        self.name, self.verdict = name, verdict  # holds | refuted | unknown
        self.witness, self.samples, self.seed = witness, samples, seed
        self.elapsed, self.lines = elapsed, [] if lines is None else lines


def render_report(r: LawReport) -> str:
    out = [f"law: {r.name}", f"samples: {r.samples}", f"seed: {r.seed}"]
    out += r.lines
    if r.witness:
        out.append(f"witness: {r.witness}")
    out.append(f"elapsed: {r.elapsed:.3f}s")
    out.append(f"VERDICT: {r.verdict}")
    return "\n".join(out)


def _finish(rep: LawReport, t0: float, verdict: Optional[str] = None,
            witness: Optional[str] = None) -> LawReport:
    """Stamp the elapsed time, and the verdict and witness when given."""
    if verdict is not None:
        rep.verdict = verdict
    if witness is not None:
        rep.witness = witness
    rep.elapsed = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# Random instances

_DENSITY = 0.7  # chance that a (state, symbol) pair has a transition


def _refuse_negative(law: str, **bounds: int) -> None:
    """Refuse a negative bound with LawError, naming the law and bound."""
    for name, value in bounds.items():
        if value < 0:
            raise LawError(f"{law} needs {name} >= 0, got {value}")


def gen_det_machine(rng: random.Random, max_states: int = 4,
                    max_symbols: int = 3) -> TmSpec:
    nstates = rng.randint(1, max_states)
    nsyms = rng.randint(1, max_symbols)
    states = tuple(f"q{i}" for i in range(nstates))
    alphabet = ("_",) + tuple("abd"[:nsyms])
    delta = {}
    for q in states:
        for f in alphabet:
            if rng.random() < _DENSITY:
                delta[(q, f)] = (rng.choice(states), rng.choice(alphabet),
                                 rng.choice("LR"))
    return TmSpec("rand", states, "q0", "_", alphabet, delta)


def gen_nd_machine(rng: random.Random) -> NdTmSpec:
    nstates = rng.randint(1, 4)
    states = tuple(f"q{i}" for i in range(nstates))
    alphabet = ("_", "a", "b")
    delta = {}
    for q in states:
        for f in alphabet:
            choices = []
            if rng.random() < _DENSITY:
                choices.append((rng.choice(states), rng.choice(alphabet),
                                rng.choice("LR")))
                if rng.random() < 0.35:
                    choices.append((rng.choice(states), rng.choice(alphabet),
                                    rng.choice("LR")))
            if choices:
                delta[(q, f)] = tuple(dict.fromkeys(choices))
    return NdTmSpec("rand", states, "q0", "_", alphabet, delta)


def gen_det_config(rng: random.Random, m: TmSpec) -> TmConfig:
    left = tuple(rng.choice(m.alphabet) for _ in range(rng.randint(0, 4)))
    right = tuple(rng.choice(m.alphabet) for _ in range(rng.randint(0, 4)))
    return make_config(m, left, rng.choice(m.states), right)


def mutate_first_write(trs: Trs) -> Trs:
    """Corrupt a single rule: swap the first unary symbol in some rhs for a
    different unary symbol of the signature.  Mutation-testing hook."""
    unary = [s for s in trs.sig if s.arity == 1]
    for k, r in enumerate(trs.rules):
        stack = [(r.rhs, ())]
        while stack:
            node, pos = stack.pop()
            if not is_var(node) and node.label.arity == 1 and pos:
                alt = next((u for u in unary if u != node.label), None)
                if alt is None:
                    break
                new_rhs = replace_at(r.rhs, pos,
                                     Term(alt, subterm_at(r.rhs, pos).children))
                rules = list(trs.rules)
                rules[k] = Rule(r.rid, r.lhs, new_rhs)
                return Trs(trs.sig, rules, name=trs.name + "+mut",
                           construction=trs.construction)
            for i in range(len(node.children), 0, -1):
                stack.append((node.children[i - 1], pos + (i,)))
    raise ValueError("no mutable write position found")


# ---------------------------------------------------------------------------
# Two-sided step-exact bisimulation


def _root_step(trs: Trs, term: Term):
    reds = find_redexes(trs, term, 0)
    if not reds:
        return None
    if len(reds) > 1:
        raise ValueError(f"machine system not deterministic at {print_term(term)}")
    return apply_step(trs, term, *reds[0])


def check_two_sided_bisim(m: TmSpec, samples: int = 100, steps: int = 50,
                          seed: int = 7, trs: Optional[Trs] = None
                          ) -> LawReport:
    """Random configs, lockstep replay: decoded system traces must equal
    machine traces one step to one step, including where both halt.
    With no configuration or no step to compare the verdict is
    unknown."""
    _refuse_negative("two-sided-bisim", samples=samples, steps=steps)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    rep = LawReport(f"two-sided-bisim[{m.name}]", "holds", samples=samples,
                    seed=seed)
    total = 0
    sys = trs if trs is not None else tm_to_trs(m)
    for s_i in range(samples):
        c = gen_det_config(rng, m)
        term = encode_config(m, c)
        for k in range(steps):
            nxt = tm_step(m, c)
            st = _root_step(sys, term)
            if (nxt is None) != (st is None):
                return _finish(rep, t0, "refuted",
                               f"machine {m.name} config "
                               f"'{display_config(c)}' step {k}: one side "
                               f"halted")
            if nxt is None:
                break
            dec = decode_config(m, st.after)
            if dec != nxt:
                return _finish(rep, t0, "refuted",
                               f"machine {m.name} config "
                               f"'{display_config(c)}' step {k}: "
                               f"'{display_config(dec)}' vs "
                               f"'{display_config(nxt)}'")
            c, term = nxt, st.after
            total += 1
    rep.lines.append(f"steps compared: {total}")
    if samples < 1:
        return _finish(rep, t0, "unknown", "no configuration sampled")
    if steps == 0:
        return _finish(rep, t0, "unknown", "no step compared")
    return _finish(rep, t0)


# ---------------------------------------------------------------------------
# One-sided stepwise bisimulation


# The configurations srs-bisim keeps per level, least first.
_SRS_WIDTH = 4


def check_srs_bisim(m: NdTmSpec, words: Optional[Sequence[OmegaWord]] = None,
                    depth: int = 100, trs: Optional[Trs] = None) -> LawReport:
    """Frontier-synchronized breadth-first comparison: at every level the
    one-step successor set of each kept configuration must equal the
    one-step reduct set of its term image, modulo bisimilarity.  A
    negative depth is refused with LawError; with nothing checked the
    verdict is unknown."""
    _refuse_negative("srs-bisim", depth=depth)
    t0 = time.perf_counter()
    sys = trs if trs is not None else nd_to_srs(m)
    if words is None:
        words = _fixture_words(m)
    rep = LawReport(f"srs-bisim[{m.name}]", "holds")
    checked = 0
    for w in words:
        root = NdConfig(w, m.initial, 0)
        frontier = [root]
        # Each distinct configuration's image is built once, as a
        # successor, and read as a term at the next level.
        images = {root: phi(root, sys.sig)}
        for level in range(depth):
            nxt: dict[NdConfig, Term] = {}
            for c in frontier:
                succs = nd_steps(m, c)
                for cc in succs:
                    if cc not in nxt:
                        nxt[cc] = phi(cc, sys.sig)
                term = images[c]
                want = sorted(set(canon_key(nxt[cc]) for cc in succs))
                # The state sits at depth c.head, and every rule is rooted
                # there or one above it.
                gotl = sorted(set(
                    canon_key(apply_step(sys, term, p, rid).after)
                    for p, rid in find_redexes(sys, term, c.head)))
                if want != gotl:
                    return _finish(rep, t0, "refuted",
                                   f"machine {m.name} word "
                                   f"{''.join(w.prefix)}({''.join(w.cycle)})"
                                   f"^w level {level} config {c!r}: "
                                   f"successor sets differ")
                checked += 1
            frontier = sorted(nxt, key=lambda c: c._key())[:_SRS_WIDTH]
            images = nxt
            if not frontier:
                break
    rep.samples = checked
    rep.lines.append(f"configs checked: {checked}")
    if checked == 0:
        return _finish(rep, t0, "unknown", "no configuration sampled")
    return _finish(rep, t0)


# ---------------------------------------------------------------------------
# The number chooser


def _pickn_shape_ok(t: Term) -> bool:
    node = t
    while not is_var(node) and node.label.name == "c":
        node = node.children[0]
    if is_var(node):
        return False
    if node.label.name == "pickn":
        return True
    if node.label.name != "ok":
        return False
    node = node.children[0]
    while not is_var(node) and node.label.name == "S":
        node = node.children[0]
    return (not is_var(node) and node.label.name == "0"
            and node.children[0].label.name == "end")


def check_pickn(n_max: int = 50, fuel: int = 40_000) -> LawReport:
    """Shortest derivations to ok(S^n(0(end))) have length exactly 2n+1
    (n wraps, one commit, n swaps) and every reachable term keeps one of
    the two canonical shapes."""
    _refuse_negative("pickn", n_max=n_max, fuel=fuel)
    t0 = time.perf_counter()
    trs = pickn_trs()
    start = parse_term("pickn", trs.sig)
    reach = step_reachability(trs, start, fuel=fuel,
                              depth_bound=2 * n_max + 4)
    rep = LawReport("pickn", "holds", samples=n_max + 1)
    for key, term in reach.terms.items():
        if not _pickn_shape_ok(term):
            return _finish(rep, t0, "refuted",
                           f"off-shape reduct {print_term(term)}")
    for n in range(n_max + 1):
        goal = "ok(" + "S(" * n + "0(end)" + ")" * n + ")"
        key = canon_key(parse_term(goal, trs.sig))
        dist = reach.dist.get(key)
        if dist is None:
            return _finish(rep, t0, "unknown",
                           f"n={n} not reached within fuel {fuel}")
        if dist != 2 * n + 1:
            return _finish(rep, t0, "refuted",
                           f"n={n}: shortest {dist} != {2 * n + 1}")
    rep.lines.append(f"reducts seen: {len(reach.terms)}")
    return _finish(rep, t0)


# ---------------------------------------------------------------------------
# Greedy cycle driver for the run constructions


_PRIORITY = {"run": 0, "peb.T": 2, "c.ok": 4, "pickn.ok": 5, "pickn.c": 6}


def greedy_order(pos: tuple[int, ...], rid: str) -> tuple:
    """Sort key of the greedy driver: restart > halt > peel > machine
    steps > swap > commit > wrap, then the position."""
    return _PRIORITY.get(rid, 1 if rid.endswith(".halt") else 3), pos


def greedy_cycle_run(trs: Trs, start: Term, fuel: int,
                     stop_after_firings: Optional[int] = None) -> Trace:
    """Deterministic driver: strategy_steps in greedy_order, never a
    self-loop.  Stops when only self-loops remain, after fuel steps, or
    one step after the requested number of restart firings.  A negative
    fuel is refused with LawError."""
    _refuse_negative("greedy-cycle-run", fuel=fuel)
    run = strategy_steps(trs, start, DEFAULT_DEPTH_BOUND, greedy_order)
    steps = []
    firings = 0
    for st in islice(run, fuel):
        steps.append(st)
        if st.rule_id == "run":
            firings += 1
        elif stop_after_firings is not None and firings >= stop_after_firings:
            break
    return Trace(start, (Epoch(tuple(steps)),))


def _count_firings(trace: Trace) -> int:
    return sum(1 for s in trace.all_steps if s.rule_id == "run")


def check_restart_cycle(m: TmSpec, firings: int = 5,
                        fuel: int = 100_000) -> LawReport:
    """Machines with halting states must admit arbitrarily many restart
    firings from run(T, pickn, pickn); machines without any halting rule
    admit at most one, certified structurally plus by bounded search.
    Zero firings to find, or a product walk that took no step from a
    start with a redex, answer unknown."""
    _refuse_negative("restart-cycle", firings=firings, fuel=fuel)
    t0 = time.perf_counter()
    sys, start = build_S(m)
    halt_rules = [r for r in sys.rules if r.rid.endswith(".halt")]
    rep = LawReport(f"restart-cycle[{m.name}]", "holds")
    if halt_rules:
        if not firings:
            return _finish(rep, t0, "unknown", "no firing to find")
        trace = greedy_cycle_run(sys, start, fuel, stop_after_firings=firings)
        got = _count_firings(trace)
        rep.lines.append(f"halt rules: {len(halt_rules)}; firings: {got} "
                         f"in {trace.total_steps} steps")
        if got < firings:
            return _finish(rep, t0, "unknown",
                           f"only {got} firings within fuel {fuel}")
        return _finish(rep, t0)
    producers = [r.rid for r in sys.rules
                 if any(s.name == "T" for s in term_symbols(r.rhs))
                 and not any(s.name == "T" for s in term_symbols(r.lhs))]
    if producers:
        return _finish(rep, t0, "refuted",
                       f"unexpected T-producing rules {producers}")
    reach = step_reachability(sys, start, fuel=min(fuel, 1000))
    # Product walk: can any explored path fire the restart rule twice?
    # Counts stop at 2, so a cycle through a firing ends the walk.
    adj: dict[int, list[tuple[int, str]]] = {}
    for a, b, rid in reach.edges:
        adj.setdefault(a, []).append((b, rid))
    start_key = canon_key(start)
    best = {start_key: 0}
    q = deque([start_key])
    while q:
        k = q.popleft()
        for b, rid in adj.get(k, ()):
            f = min(best[k] + (1 if rid == "run" else 0), 2)
            if f > best.get(b, -1):
                best[b] = f
                q.append(b)
    worst = max(best.values(), default=0)
    rep.lines.append(f"no halt rules; max firings over {len(best)} explored "
                     f"terms: {worst}")
    if worst > 1:
        return _finish(rep, t0, "refuted",
                       f"a path with {worst} firings exists")
    # A walk of no step bounds nothing, unless the start is a normal form.
    if not reach.edges and not reach.frontier_exhausted:
        return _finish(rep, t0, "unknown",
                       f"product walk took no step within fuel {fuel}")
    return _finish(rep, t0)


def check_pebbled_reach(m: TmSpec, firings: int = 5,
                        fuel: int = 100_000) -> LawReport:
    """(a) the greedy pebbled-restart trace pins a stable outer peb prefix
    of the requested depth; (b) the self-loop rule changes nothing about
    the reachable set.  Zero firings to pin answer unknown."""
    _refuse_negative("pebbled-reach", firings=firings, fuel=fuel)
    t0 = time.perf_counter()
    sys, start = build_S_prime(m)
    halt_rules = [r for r in sys.rules if r.rid.endswith(".halt")]
    rep = LawReport(f"pebbled-reach[{m.name}]", "holds")
    if halt_rules and not firings:
        return _finish(rep, t0, "unknown", "no firing to pin")
    want = firings if halt_rules else 1
    trace = greedy_cycle_run(sys, start, fuel, stop_after_firings=want + 1)
    if halt_rules:
        depth, prefix = stable_prefix(trace, want)
        shown = print_term(prefix) if depth == want else "unstable"
        rep.lines.append(f"stable peb prefix depth: {depth} ({shown})")
        if depth < want:
            return _finish(rep, t0, "unknown",
                           f"prefix depth {depth} < {want} within fuel")
        # A run too short to fire the restarts is stable at every depth.
        if shown != "peb(" * want + "cut" + ")" * want:
            return _finish(rep, t0, "unknown",
                           f"stable prefix is not a peb tower of depth {want}")
    else:
        got = _count_firings(trace)
        rep.lines.append(f"no halt rules; firings: {got} (expected <= 1)")
        # A run of no steps bounds nothing.
        if not trace.total_steps:
            return _finish(rep, t0, "unknown",
                           f"greedy run took no step within fuel {fuel}")
        if got > 1:
            return _finish(rep, t0, "refuted",
                           f"{got} firings without halt rules")
    with_loop = step_reachability(sys, start, fuel=1000)
    without = step_reachability(sys.without("run.loop"), start, fuel=1000)
    same = set(with_loop.dist) == set(without.dist)
    rep.lines.append(f"reachable sets with/without self-loop: "
                     f"{len(with_loop.dist)}/{len(without.dist)} keys, "
                     f"equal={same}")
    if not same:
        return _finish(rep, t0, "refuted",
                       "self-loop rule changed the reachable set")
    return _finish(rep, t0)


# ---------------------------------------------------------------------------
# The uniform-normalization probe


def _fixture_words(m: NdTmSpec) -> list[OmegaWord]:
    return [parse_word("(a)^w", m.alphabet), parse_word("ab(ba)^w", m.alphabet)]


def _depth3_corpus(sys: Trs, m: NdTmSpec, zs: Sequence[Term]) -> list[Term]:
    unary = [sys.sig.get(n) for n in
             list(m.alphabet) + list(m.states) + ["D1", "D2"]]
    leaves = [parse_term("xi", sys.sig), parse_term("bot", sys.sig)] + list(zs)
    layers = [leaves]
    for _ in range(3):
        layers.append([app(u, t) for u in unary for t in layers[-1]])
    return [t for layer in layers for t in layer]


def _designated_term(sys: Trs, z: Term) -> Term:
    sig = sys.sig
    return app(sig.get("run"), app(sig.get("xi")),
               app(sig.get("q0"), z), app(sig.get("D1"), z),
               app(sig.get("D2"), z))


def _contains(t: Term, names: set) -> bool:
    return any(s.name in names for s in term_symbols(t))


def check_norm_probe(mpos: NdTmSpec, mneg: NdTmSpec, fuel: int = 10_000,
                     epochs: int = 3, as_printed: bool = False) -> LawReport:
    """Positive machine: a depth-3 corpus plus the designated restart term
    all normalize, the designated term to bot.  Negative machine: the
    designated term exhausts its search and the reducts of q0(z) and xi
    stay disjoint (state-or-bot vs neither)."""
    _refuse_negative("norm-probe", fuel=fuel, epochs=epochs)
    t0 = time.perf_counter()
    rep = LawReport("norm-probe", "holds")
    for w in _fixture_words(mpos):
        if membership_semidecide(mpos, w, fuel=200).kind != "accepted":
            raise ValueError(f"positive fixture rejects a fixture word")
    for w in _fixture_words(mneg):
        if membership_semidecide(mneg, w, fuel=200).kind != "rejected_exhausted":
            raise ValueError(f"negative fixture accepts a fixture word")
    if as_printed:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            Rpos = build_R(mpos, as_printed=True)
        r1 = Rpos.rule("run.restart")
        if match(r1.lhs, r1.rhs) is not None:
            return _finish(rep, t0, "refuted",
                           "restart rule matches its own rhs; every "
                           "application re-enables it at the same position")
    else:
        Rpos = build_R(mpos)
    zs = [phi(w, Rpos.sig) for w in _fixture_words(mpos)]
    corpus = _depth3_corpus(Rpos, mpos, zs) + [_designated_term(Rpos, zs[0])]
    for t in corpus:
        res = bounded_normalize(Rpos, t, fuel=fuel, max_epochs=epochs)
        if not res.found:
            # failure to certify within bounds never refutes: the limit
            # detector is incomplete by design
            return _finish(rep, t0, "unknown",
                           f"corpus term {print_term(t)} did not normalize "
                           f"within fuel {fuel}")
    # res is the designated term's, the corpus's last.
    if res.normal_form.label.name != "bot":
        return _finish(rep, t0, "unknown",
                       f"designated term did not reach bot within fuel {fuel}")
    rep.lines.append(f"positive corpus normalized: {len(corpus)} terms; "
                     f"designated reached bot in {res.trace.total_steps} "
                     f"steps, {res.trace.closures} closures")
    Rneg = build_R(mneg)
    zneg = phi(_fixture_words(mneg)[0], Rneg.sig)
    des_neg = _designated_term(Rneg, zneg)
    res_neg = bounded_normalize(Rneg, des_neg, fuel=fuel, max_epochs=epochs)
    if res_neg.found:
        return _finish(rep, t0, "refuted",
                       f"negative designated term normalized to "
                       f"{print_term(res_neg.normal_form)}")
    rep.lines.append(f"negative designated term exhausted: "
                     f"{res_neg.diagnostics['reason']} after "
                     f"{res_neg.diagnostics['expansions']} expansions")
    states = set(mneg.states)
    qz = app(Rneg.sig.get("q0"), zneg)
    qreach = step_reachability(Rneg, qz, fuel=1000)
    for key, term in qreach.terms.items():
        if not _contains(term, states | {"bot"}):
            return _finish(rep, t0, "refuted",
                           f"state-and-bot-free reduct {print_term(term)}")
    xireach = step_reachability(Rneg, parse_term("xi", Rneg.sig), fuel=1000)
    for key, term in xireach.terms.items():
        if _contains(term, states | {"bot"}):
            return _finish(rep, t0, "refuted",
                           f"generator reduct contains state/bot: "
                           f"{print_term(term)}")
    rep.lines.append(f"reduct disjointness: {len(qreach.terms)} head reducts "
                     f"vs {len(xireach.terms)} generator reducts")
    rep.samples = len(corpus)
    return _finish(rep, t0)


def check_limit_correspondence(m: NdTmSpec, w: OmegaWord,
                               fuel: int = 2000) -> LawReport:
    """Acceptance of the word must coincide with the head term closing to
    a rational ground tape image under the plain unary system."""
    _refuse_negative("limit-correspondence", fuel=fuel)
    t0 = time.perf_counter()
    rep = LawReport(f"limit-correspondence[{m.name}]", "holds")
    sys = nd_to_srs(m)
    member = membership_semidecide(m, w, fuel=200)
    start = app(sys.sig.get(m.initial), phi(w, sys.sig))
    res = bounded_normalize(sys, start, fuel=fuel, max_epochs=2)
    if member.kind == "accepted":
        if not res.found and res.diagnostics["reason"] == "fuel":
            return _finish(rep, t0, "unknown",
                           f"accepted word but no closure found within "
                           f"fuel {fuel}")
        if not res.found:
            return _finish(rep, t0, "refuted",
                           "accepted word but no closure found")
        bad = [s for s in term_symbols(res.normal_form)
               if s.name not in m.alphabet]
        if bad:
            return _finish(rep, t0, "refuted",
                           f"limit is not a ground tape term: {bad}")
        rep.lines.append(f"limit: {print_term(res.normal_form)} after "
                         f"{res.trace.total_steps} steps, "
                         f"{res.trace.closures} closures")
    elif member.kind == "rejected_exhausted":
        if res.found:
            return _finish(rep, t0, "refuted",
                           f"rejected word but head term normalized to "
                           f"{print_term(res.normal_form)}")
        # A search of no step is stable at every depth: it bounds nothing.
        if not res.diagnostics["max_steps"]:
            return _finish(rep, t0, "unknown",
                           f"search took no step within fuel {fuel}")
        depth = res.diagnostics.get("stable_prefix_depth", -1)
        rep.lines.append(f"no closure; stable depth witness: {depth}")
        if depth > 1:
            return _finish(rep, t0, "refuted",
                           f"rewrite activity left depth {depth} unexpectedly")
    else:
        return _finish(rep, t0, "unknown", "membership unknown within bounds")
    return _finish(rep, t0)
