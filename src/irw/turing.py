"""Deterministic two-sided Turing machines.

A machine is a finite set of states, an initial state, a finite alphabet
with a designated blank, and a partial transition function
``delta : (state, symbol) -> (state, symbol, L|R)``.  A configuration
keeps the head between two finite stacks of tape symbols:

* ``left``  - symbols to the left of the head, nearest first,
* ``right`` - the head symbol and everything to its right, head first.

Cells beyond both stacks read blank; configurations are kept canonical by
trimming trailing blanks at both far ends, so equal tapes compare equal.
The display order is ``reversed(left) state right``, e.g. ``0 S S q0 S 0``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Mapping, Optional

__all__ = [
    "MachineError", "check_spec", "TmSpec", "TmConfig", "TmOutcome",
    "FunResult", "make_config", "display_config", "parse_config",
    "tm_step", "tm_run", "tm_final", "initial_fun_config", "initial_rel_config",
    "eval_fun", "eval_rel", "rel_verdict",
]


class MachineError(Exception):
    pass


def check_spec(m) -> None:
    """The well-formedness check of both machine kinds, over the moves
    ``((state, read), (state, write, L|R))`` that ``m.moves()`` lists."""
    q, g = set(m.states), set(m.alphabet)
    if q & g:
        raise MachineError(f"states and alphabet overlap: {sorted(q & g)}")
    if m.initial not in q:
        raise MachineError(f"initial state {m.initial} not declared")
    if m.blank not in g:
        raise MachineError(f"blank {m.blank} not in alphabet")
    for (s, f), (s2, f2, d) in m.moves():
        if s not in q or s2 not in q or f not in g or f2 not in g:
            raise MachineError(f"delta entry ({s},{f})->({s2},{f2},{d}) "
                               "uses undeclared names")
        if d not in ("L", "R"):
            raise MachineError(f"bad direction {d!r}")


class _Spec:
    """The fields of both machine kinds, checked by check_spec when built;
    machines are equal by value.  ``delta`` maps (state, read) to one move
    (state, write, L|R) in a TmSpec, to a tuple of moves in an NdTmSpec."""

    __slots__ = ("name", "states", "initial", "blank", "alphabet", "delta")

    def __init__(self, name: str, states: tuple[str, ...], initial: str,
                 blank: str, alphabet: tuple[str, ...], delta: Mapping):
        self.name, self.states, self.initial = name, states, initial
        self.blank, self.alphabet, self.delta = blank, alphabet, delta
        check_spec(self)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and all(
            getattr(self, f) == getattr(other, f) for f in _Spec.__slots__)


class TmSpec(_Spec):
    __slots__ = ()
    KIND = "det-two-sided"    # the kind line of a machine file

    def moves(self):
        return self.delta.items()


class TmConfig:
    """Canonical configuration; build with make_config."""

    __slots__ = ("left", "state", "right")

    def __init__(self, left: tuple[str, ...], state: str, right: tuple[str, ...]):
        self.left, self.state, self.right = left, state, right

    def __eq__(self, other):
        return other.__class__ is TmConfig and self.state == other.state and \
            self.left == other.left and self.right == other.right


def _trim(blank: str, seq: tuple[str, ...]) -> tuple[str, ...]:
    i = len(seq)
    while i > 0 and seq[i - 1] == blank:
        i -= 1
    return seq[:i]


def make_config(m: TmSpec, left, state: str, right) -> TmConfig:
    if state not in m.states:
        raise MachineError(f"unknown state {state!r}")
    left, right = tuple(left), tuple(right)
    for f in left + right:
        if f not in m.alphabet:
            raise MachineError(f"unknown tape symbol {f!r}")
    return TmConfig(_trim(m.blank, left), state, _trim(m.blank, right))


def display_config(c: TmConfig) -> str:
    toks = list(reversed(c.left)) + [c.state] + list(c.right)
    return " ".join(toks)


def parse_config(m: TmSpec, text: str) -> TmConfig:
    toks = text.split()
    hits = [i for i, t in enumerate(toks) if t in m.states]
    if len(hits) != 1:
        raise MachineError(f"config must contain exactly one state token: {text!r}")
    i = hits[0]
    return make_config(m, tuple(reversed(toks[:i])), toks[i], tuple(toks[i + 1:]))


def tm_step(m: TmSpec, c: TmConfig) -> Optional[TmConfig]:
    """The unique successor configuration, or None at a normal form.

    On R the written symbol is pushed onto the left stack.  On L the
    nearest left symbol (blank if none) becomes the new head symbol,
    followed by the written one.
    """
    head = c.right[0] if c.right else m.blank
    ent = m.delta.get((c.state, head))
    if ent is None:
        return None
    q2, f2, d = ent
    rest = c.right[1:] if c.right else ()
    if d == "R":
        left = (f2,) + c.left
        right = rest
    else:
        g = c.left[0] if c.left else m.blank
        left = c.left[1:]
        right = (g, f2) + rest
    return TmConfig(_trim(m.blank, left), q2, _trim(m.blank, right))


def tm_run(m: TmSpec, c: TmConfig) -> Iterator[TmConfig]:
    """Yield the configurations after c, one tm_step each, until no entry
    applies."""
    while True:
        c = tm_step(m, c)
        if c is None:
            return
        yield c


class TmOutcome:
    __slots__ = ("kind", "config", "steps")  # kind: "final" | "timeout"

    def __init__(self, kind: str, config: TmConfig, steps: int):
        self.kind, self.config, self.steps = kind, config, steps


def tm_final(m: TmSpec, c: TmConfig, fuel: int) -> TmOutcome:
    """Take at most fuel steps of tm_run from c; final once no entry
    applies, timeout when a step remains after the fuel runs out."""
    if fuel < 0:
        raise MachineError("fuel must be >= 0")
    run, k = tm_run(m, c), 0
    for c in islice(run, fuel):
        k += 1
    return TmOutcome("final" if next(run, None) is None else "timeout", c, k)


def _require_numeric(m: TmSpec, *numerals: int) -> None:
    if "S" not in m.alphabet or "0" not in m.alphabet:
        raise MachineError("machine alphabet must contain S and 0")
    if min(numerals) < 0:
        raise MachineError(f"numerals must be >= 0, got {min(numerals)}")


def initial_fun_config(m: TmSpec, n: int) -> TmConfig:
    _require_numeric(m, n)
    return make_config(m, (), m.initial, ("S",) * n + ("0",))


def initial_rel_config(m: TmSpec, n: int, k: int) -> TmConfig:
    _require_numeric(m, n, k)
    return make_config(m, ("S",) * n + ("0",), m.initial, ("S",) * k + ("0",))


class FunResult:
    __slots__ = ("kind", "value")  # kind: "value" | "undefined" | "unknown"

    def __init__(self, kind: str, value: Optional[int] = None):
        self.kind, self.value = kind, value


def eval_fun(m: TmSpec, n: int, fuel: int) -> FunResult:
    """Run from the numeric input S^n 0 and decode the final head word.

    The value is the length of the maximal S-run at the head, which must
    be terminated by an explicit 0; any other final shape is undefined,
    and fuel exhaustion stays distinct as unknown.
    """
    out = tm_final(m, initial_fun_config(m, n), fuel)
    if out.kind == "timeout":
        return FunResult("unknown")
    r = out.config.right
    i = 0
    while i < len(r) and r[i] == "S":
        i += 1
    if i < len(r) and r[i] == "0":
        return FunResult("value", i)
    return FunResult("undefined")


def eval_rel(m: TmSpec, n: int, k: int, fuel: int) -> str:
    """Decide the pair relation: run from `0 S^n q0 S^k 0` and test
    whether the final head symbol is 0.  Returns holds/fails/unknown."""
    return rel_verdict(m, tm_final(m, initial_rel_config(m, n, k), fuel))


def rel_verdict(m: TmSpec, out: TmOutcome) -> str:
    """The pair relation's verdict on the outcome of its run."""
    if out.kind == "timeout":
        return "unknown"
    head = out.config.right[0] if out.config.right else m.blank
    return "holds" if head == "0" else "fails"
