"""Compilation of machines into rewrite systems, and machine data into
terms.

Constructions (the `Construction` tags accepted by the CLI):

* ``base``    - two-sided machine to a TRS with binary state symbols,
  unary tape symbols and the end-of-tape constant, plus the four schemas
  for extending the tape at either end.
* ``pebbled`` - every base rule's rhs wrapped in the unary marker `peb`,
  plus `q(x, 0(y)) -> T` for every state q with no entry on S, and
  `peb(T) -> T`.
* ``pickn``   - the three-rule number chooser.
* ``S``       - pebbled + pickn + the restart rule
  `run(T, ok(x), ok(y)) -> run(q0(x, y), ok(y), pickn)`.
* ``Sprime``  - as S with the restart rhs wrapped in `peb`, plus the
  self-loop `run(x, y, z) -> run(x, y, z)` emitted last.
* ``srs``     - one-sided nondeterministic machine to a unary-symbol
  system.
* ``R``       - srs plus the four-place `run` restart/stop pair, the
  state-erasing rules `q(x) -> bot`, the tape generator `xi -> f(xi)`,
  and the two comparator walkers D1/D2.

Glyph table (fixed): peb, end, bot, xi, D1, D2, T, `_` for blank;
run/ok/c/pickn/S/0 keep their names.  These names are reserved: machines
whose states or alphabet collide with them are rejected.

Rule emission order is fixed and compiling the same machine twice yields
byte-identical output.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Union

from .omega import NdConfig, NdTmSpec, OmegaWord
from .rewrite import Rule, Trs, format_trs
from .terms import Signature, Symbol, Term, TermError, app, var
from .turing import TmConfig, TmSpec, make_config

__all__ = [
    "EncodeError", "EncodeWarning", "RESERVED_NAMES", "CONSTRUCTIONS",
    "tm_to_trs", "encode_config", "decode_config", "pebble_trs", "pickn_trs",
    "build_S", "build_S_prime", "nd_to_srs", "phi", "build_R",
    "compile_construction", "emit_trs_file",
]


class EncodeError(TermError):
    pass


class EncodeWarning(UserWarning):
    pass


RESERVED_NAMES = frozenset(
    {"peb", "end", "bot", "xi", "D1", "D2", "T", "run", "ok", "c", "pickn",
     "cut"})

CONSTRUCTIONS = ("base", "pebbled", "pickn", "S", "Sprime", "srs", "R")

END = Symbol("end", 0)
PEB = Symbol("peb", 1)
TOP = Symbol("T", 0)
BOT = Symbol("bot", 0)
XI = Symbol("xi", 0)
D1 = Symbol("D1", 1)
D2 = Symbol("D2", 1)
RUN3 = Symbol("run", 3)
RUN4 = Symbol("run", 4)
OK = Symbol("ok", 1)
C1 = Symbol("c", 1)
PICKN = Symbol("pickn", 0)


def _check_names(m: Union[TmSpec, NdTmSpec]) -> None:
    clash = (set(m.states) | set(m.alphabet)) & RESERVED_NAMES
    if clash:
        raise EncodeError(
            f"machine {m.name}: names {sorted(clash)} are reserved")


def _machine_sig(m: Union[TmSpec, NdTmSpec], state_arity: int) -> Signature:
    """The states with the given arity, the unary tape symbols and `end`."""
    return Signature([Symbol(q, state_arity) for q in m.states]
                     + [Symbol(f, 1) for f in m.alphabet] + [END])


def tm_to_trs(m: TmSpec) -> Trs:
    """Compile a two-sided machine; one rewrite step per machine step.

    Emission order: the R rules, the L rules (the schematic left symbol g
    instantiated over the whole alphabet), then the four tape-extension
    schemas in the same left/right/left-left/both order.
    """
    _check_names(m)
    sig = _machine_sig(m, 2)
    S = lambda name: sig.get(name)
    x, y = var("x"), var("y")
    rules: list[Rule] = []
    r_entries = [(q, f, e) for (q, f), e in m.delta.items() if e[2] == "R"]
    l_entries = [(q, f, e) for (q, f), e in m.delta.items() if e[2] == "L"]
    for q, f, (q2, f2, _) in r_entries:
        rules.append(Rule(f"{q}.{f}.R",
                          app(S(q), x, app(S(f), y)),
                          app(S(q2), app(S(f2), x), y)))
    for q, f, (q2, f2, _) in l_entries:
        for g in m.alphabet:
            rules.append(Rule(f"{q}.{f}.L.{g}",
                              app(S(q), app(S(g), x), app(S(f), y)),
                              app(S(q2), x, app(S(g), app(S(f2), y)))))
    for q, f, (q2, f2, _) in l_entries:
        rules.append(Rule(f"{q}.{f}.L.end",
                          app(S(q), app(END), app(S(f), y)),
                          app(S(q2), app(END), app(S(m.blank), app(S(f2), y)))))
    for q, f, (q2, f2, _) in r_entries:
        if f == m.blank:
            rules.append(Rule(f"{q}.{f}.R.end",
                              app(S(q), x, app(END)),
                              app(S(q2), app(S(f2), x), app(END))))
    for q, f, (q2, f2, _) in l_entries:
        if f == m.blank:
            for g in m.alphabet:
                rules.append(Rule(f"{q}.{f}.L.{g}.end",
                                  app(S(q), app(S(g), x), app(END)),
                                  app(S(q2), x, app(S(g), app(S(f2), app(END))))))
    for q, f, (q2, f2, _) in l_entries:
        if f == m.blank:
            rules.append(Rule(f"{q}.{f}.L.end.end",
                              app(S(q), app(END), app(END)),
                              app(S(q2), app(END),
                                  app(S(m.blank), app(S(f2), app(END))))))
    return Trs(sig, rules, name=m.name, construction="base")


def _fold(sig: Signature, seq: Sequence[str],
          t: Optional[Term] = None) -> Term:
    """Fold seq nearest-first into unary applications over t (or `end`)."""
    t = app(END) if t is None else t
    syms = dict.fromkeys(reversed(seq))  # each name once, first one first
    for f in syms:
        sym = syms[f] = sig.get(f)
        if sym is None or sym.arity != 1:
            raise EncodeError(f"{f!r} is not a unary symbol of the signature")
    for f in reversed(seq):
        t = Term(syms[f], (t,))
    return t


def encode_config(m: TmSpec, c: TmConfig) -> Term:
    """q(enc(left), enc(right)): each side folds nearest-first into unary
    applications over `end`, trailing blanks trimmed."""
    sig = _machine_sig(m, 2)
    return app(Symbol(c.state, 2), _fold(sig, c.left), _fold(sig, c.right))


def _unfold(m: TmSpec, t: Term, where: str) -> tuple[str, ...]:
    out = []
    while True:
        if t.label == END:
            return tuple(out)
        if isinstance(t.label, str) or t.label.arity != 1 \
                or t.label.name not in m.alphabet:
            raise EncodeError(
                f"malformed configuration term at {where} position {len(out)}")
        out.append(t.label.name)
        t = t.children[0]


def decode_config(m: TmSpec, t: Term) -> TmConfig:
    """Inverse of encode_config, canonicalizing trailing blanks."""
    if isinstance(t.label, str) or t.label.arity != 2 \
            or t.label.name not in m.states:
        raise EncodeError("configuration term must be q(left, right) at the root")
    left = _unfold(m, t.children[0], "left")
    right = _unfold(m, t.children[1], "right")
    return make_config(m, left, t.label.name, right)


def pebble_trs(m: TmSpec) -> Trs:
    """Wrap every step rule's rhs in `peb`; add halting collapse rules.

    A halt rule `q(x, 0(y)) -> T` is emitted exactly for the states with
    no entry on S.  If such a state still has an entry on 0 the two
    overlap; compilation proceeds but warns.
    """
    base = tm_to_trs(m)
    if "S" not in m.alphabet or "0" not in m.alphabet:
        raise EncodeError("pebbled construction needs S and 0 in the alphabet")
    sig = Signature(base.sig)
    sig.declare(PEB)
    sig.declare(TOP)
    x, y = var("x"), var("y")
    rules = [Rule(r.rid, r.lhs, app(PEB, r.rhs)) for r in base.rules]
    for q in m.states:
        if (q, "S") not in m.delta:
            if (q, "0") in m.delta:
                warnings.warn(
                    f"machine {m.name}: state {q} halts on 0 but also has a "
                    f"0-entry; the pebbled system overlaps there",
                    EncodeWarning, stacklevel=2)
            rules.append(Rule(f"{q}.halt",
                              app(Symbol(q, 2), x, app(sig.get("0"), y)),
                              app(TOP)))
    rules.append(Rule("peb.T", app(PEB, app(TOP)), app(TOP)))
    return Trs(sig, rules, name=m.name, construction="pebbled")


def pickn_trs() -> Trs:
    """The number chooser: grow a stack of c, commit to zero, then swap
    each c into a successor."""
    sig = Signature([PICKN, C1, OK, Symbol("S", 1), Symbol("0", 1), END])
    x = var("x")
    rules = [
        Rule("pickn.c", app(PICKN), app(C1, app(PICKN))),
        Rule("pickn.ok", app(PICKN), app(OK, app(sig.get("0"), app(END)))),
        Rule("c.ok", app(C1, app(OK, x)), app(OK, app(sig.get("S"), x))),
    ]
    return Trs(sig, rules, name="pickn", construction="pickn")


def _restart_system(m: TmSpec, pebbled: bool) -> tuple[Trs, Term]:
    peb = pebble_trs(m)
    pick = pickn_trs()
    sig = peb.sig.merged(pick.sig)
    sig.declare(RUN3)
    x, y, z = var("x"), var("y"), var("z")
    rhs = app(RUN3, app(sig.get(m.initial), x, y), app(OK, y), app(PICKN))
    rules = list(peb.rules) + list(pick.rules)
    rules.append(Rule("run", app(RUN3, app(TOP), app(OK, x), app(OK, y)),
                      app(PEB, rhs) if pebbled else rhs))
    if pebbled:
        rules.append(Rule("run.loop", app(RUN3, x, y, z), app(RUN3, x, y, z)))
    start = app(RUN3, app(TOP), app(PICKN), app(PICKN))
    return Trs(sig, rules, name=m.name,
               construction="Sprime" if pebbled else "S"), start


def build_S(m: TmSpec) -> tuple[Trs, Term]:
    """Pebbled system + chooser + the ternary restart rule; the start term
    is run(T, pickn, pickn)."""
    return _restart_system(m, pebbled=False)


def build_S_prime(m: TmSpec) -> tuple[Trs, Term]:
    """As build_S with a peb around the restart rhs, plus the self-loop
    run(x,y,z) -> run(x,y,z) emitted last."""
    return _restart_system(m, pebbled=True)


def nd_to_srs(m: NdTmSpec) -> Trs:
    """One-sided machine as a string rewriting system over unary symbols.

    Right moves rewrite at the state symbol; left moves at the symbol just
    above it, which is exactly why a head at the word start cannot move
    left.
    """
    _check_names(m)
    sig = _machine_sig(m, 1)
    S = lambda name: sig.get(name)
    x = var("x")
    rules: list[Rule] = []
    for (q, f), choices in m.delta.items():
        for i, (q2, f2, d) in enumerate(choices):
            if d == "R":
                rules.append(Rule(f"{q}.{f}.R{i}" if len(choices) > 1 else f"{q}.{f}.R",
                                  app(S(q), app(S(f), x)),
                                  app(S(f2), app(S(q2), x))))
    for (q, f), choices in m.delta.items():
        for i, (q2, f2, d) in enumerate(choices):
            if d == "L":
                for g in m.alphabet:
                    rid = (f"{g}.{q}.{f}.L{i}" if len(choices) > 1
                           else f"{g}.{q}.{f}.L")
                    rules.append(Rule(rid,
                                      app(S(g), app(S(q), app(S(f), x))),
                                      app(S(q2), app(S(g), app(S(f2), x)))))
    return Trs(sig, rules, name=m.name, construction="srs")


def phi(w, sig: Signature) -> Term:
    """The word-to-term map over the required signature ``sig``, usually
    the system's: a finite sequence of symbol names folds to a unary nest
    over `end`; an omega-word folds its cycle into a term cycle; a
    configuration interleaves the state at the head, the suffix taken
    from the written-over tape.  Every folded cell must name a unary
    symbol of ``sig``."""
    if isinstance(w, OmegaWord):
        return _fold(sig, w.prefix, _cycle(sig, w.cycle))
    if isinstance(w, NdConfig):
        return _phi_config(w, sig)
    return _fold(sig, [str(s) for s in w])


def _phi_config(c: NdConfig, sig: Signature) -> Term:
    w = c.word
    upto = max([c.head, len(w.prefix)] + [p + 1 for p in c.writes])
    # Rebase: explicit overlaid prefix up to `upto`, then the pure cycle.
    shift = (upto - len(w.prefix)) % len(w.cycle)
    tail_cycle = w.cycle[shift:] + w.cycle[:shift]
    flat = list(w.cells(upto))
    for i, f in c.writes.items():
        flat[i] = f
    flat.insert(c.head, c.state)
    return _fold(sig, flat, _cycle(sig, tail_cycle))


def _cycle(sig: Signature, cycle: tuple[str, ...]) -> Term:
    """The cyclic tail, built once per signature and rotation."""
    try:
        return sig.unary_cycle(cycle)
    except TermError as e:
        raise EncodeError(f"phi: {e}") from None


def build_R(m: NdTmSpec, as_printed: bool = False) -> Trs:
    """The uniform-normalization probe system on top of the srs rules.

    The restart rule feeds a fresh generator, a restarted head and the two
    comparator walkers; its fourth argument is D2 so that restarting stays
    guarded by the comparators actually meeting.  ``as_printed`` emits D1
    twice instead, which makes the rule re-enable itself unconditionally;
    it is provided for side-by-side comparison and warns when used.
    """
    srs = nd_to_srs(m)
    sig = Signature(srs.sig)
    for s in (RUN4, XI, D1, D2, BOT):
        sig.declare(s)
    S = lambda name: sig.get(name)
    x, y, z = var("x"), var("y"), var("z")
    rules = list(srs.rules)
    fourth = D1 if as_printed else D2
    if as_printed:
        warnings.warn(
            "as-printed restart rule duplicates D1 and re-enables itself at "
            "every application", EncodeWarning, stacklevel=2)
    rules.append(Rule("run.restart",
                      app(RUN4, x, y, z, z),
                      app(RUN4, app(XI), app(S(m.initial), z),
                          app(D1, z), app(fourth, z))))
    rules.append(Rule("run.stop", app(RUN4, x, x, y, z), app(BOT)))
    for q in m.states:
        rules.append(Rule(f"{q}.bot", app(S(q), x), app(BOT)))
    for f in m.alphabet:
        rules.append(Rule(f"xi.{f}", app(XI), app(S(f), app(XI))))
    for f in m.alphabet:
        rules.append(Rule(f"D1.{f}", app(D1, app(S(f), x)), app(S(f), app(D1, x))))
    for f in m.alphabet:
        rules.append(Rule(f"D2.{f}", app(D2, app(S(f), x)), app(S(f), app(D2, x))))
    tag = "R-as-printed" if as_printed else "R"
    return Trs(sig, rules, name=m.name, construction=tag)


# tag -> (machine class or None, builder of (system, start term or None))
_BUILDERS = {
    "base": (TmSpec, lambda m: (tm_to_trs(m), None)),
    "pebbled": (TmSpec, lambda m: (pebble_trs(m), None)),
    "pickn": (None, lambda m: (pickn_trs(), None)),
    "S": (TmSpec, build_S),
    "Sprime": (TmSpec, build_S_prime),
    "srs": (NdTmSpec, lambda m: (nd_to_srs(m), None)),
    "R": (NdTmSpec, lambda m: (build_R(m), None)),
}


def compile_construction(tag: str, m=None,
                         as_printed: bool = False) -> tuple[Trs, Optional[Term]]:
    """Dispatch by construction tag; returns the system and, for S and
    Sprime, the designated start term.  A machine given to pickn, which
    takes none, and ``as_printed`` for any tag but R are refused."""
    if tag not in _BUILDERS:
        raise EncodeError(f"unknown construction {tag!r}; have {CONSTRUCTIONS}")
    spec, build = _BUILDERS[tag]
    if spec is None and m is not None:
        raise EncodeError(f"construction {tag!r} takes no machine")
    if spec is not None and m is None:
        raise EncodeError(f"construction {tag!r} needs a machine")
    if spec is not None and not isinstance(m, spec):
        raise EncodeError(f"{tag} needs a {spec.KIND} machine")
    if as_printed:
        if tag != "R":
            raise EncodeError(f"construction {tag!r} has no as-printed form")
        return build_R(m, as_printed=True), None
    return build(m)


def emit_trs_file(trs: Trs) -> str:
    header = [f"construction: {trs.construction}"]
    if trs.name:
        header.append(f"machine: {trs.name}")
    header.append(f"rules: {len(trs.rules)}")
    return format_trs(trs, header=header)
