"""Machine file parsing, printing, and the shipped fixture set.

File format::

    machine <name>
    kind det-two-sided | nondet-one-sided
    states q0 q1 ...
    initial q0
    blank _
    alphabet _ S 0 ...
    delta <q> <f> -> <q'> <f'> <L|R>     # repeated lines allowed when nondet
    end

``#`` starts a comment anywhere.
"""

from __future__ import annotations

from importlib import resources

from .omega import NdTmSpec
from .turing import MachineError, TmSpec

__all__ = ["parse_machine", "format_machine", "load_fixture", "fixture_text",
           "FIXTURES"]

FIXTURES = ("m_acc", "m_rej", "m_ext", "nd_right", "nd_pong")


def parse_machine(text: str) -> TmSpec | NdTmSpec:
    fields: dict[str, list[str]] = {}
    deltas: list[tuple[str, str, str, str, str]] = []
    seen_end = False
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if seen_end:
            raise MachineError(f"line {ln}: content after 'end'")
        toks = line.split()
        key = toks[0]
        if key == "end":
            seen_end = True
            continue
        if key == "delta":
            if len(toks) != 7 or toks[3] != "->":
                raise MachineError(f"line {ln}: bad delta line {raw!r}")
            deltas.append((toks[1], toks[2], toks[4], toks[5], toks[6]))
            continue
        if key in ("machine", "kind", "initial", "blank"):
            if len(toks) != 2:
                raise MachineError(f"line {ln}: '{key}' takes one value")
            fields[key] = [toks[1]]
            continue
        if key in ("states", "alphabet"):
            fields[key] = toks[1:]
            continue
        raise MachineError(f"line {ln}: unknown directive {key!r}")
    for req in ("machine", "kind", "states", "initial", "blank", "alphabet"):
        if req not in fields:
            raise MachineError(f"missing '{req}' line")
    if not seen_end:
        raise MachineError("missing 'end' line")
    name = fields["machine"][0]
    kind = fields["kind"][0]
    states = tuple(fields["states"])
    alphabet = tuple(fields["alphabet"])
    if kind == TmSpec.KIND:
        delta: dict[tuple[str, str], tuple[str, str, str]] = {}
        for (q, f, q2, f2, d) in deltas:
            if (q, f) in delta:
                raise MachineError(f"duplicate delta for ({q},{f}) in a "
                                   "deterministic machine")
            delta[(q, f)] = (q2, f2, d)
        return TmSpec(name, states, fields["initial"][0], fields["blank"][0],
                      alphabet, delta)
    if kind == NdTmSpec.KIND:
        nd: dict[tuple[str, str], tuple[tuple[str, str, str], ...]] = {}
        for (q, f, q2, f2, d) in deltas:
            nd[(q, f)] = nd.get((q, f), ()) + ((q2, f2, d),)
        return NdTmSpec(name, states, fields["initial"][0], fields["blank"][0],
                        alphabet, nd)
    raise MachineError(f"unknown machine kind {kind!r}")


def format_machine(m: TmSpec | NdTmSpec) -> str:
    lines = [
        f"machine {m.name}",
        f"kind {m.KIND}",
        "states " + " ".join(m.states),
        f"initial {m.initial}",
        f"blank {m.blank}",
        "alphabet " + " ".join(m.alphabet),
    ]
    for (q, f), (q2, f2, d) in m.moves():
        lines.append(f"delta {q} {f} -> {q2} {f2} {d}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise MachineError(f"unknown fixture {name!r}; have {FIXTURES}")
    return (resources.files("irw") / "fixtures" / f"{name}.tm").read_text()


def load_fixture(name: str) -> TmSpec | NdTmSpec:
    return parse_machine(fixture_text(name))
