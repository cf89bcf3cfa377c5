"""First-order rewriting on finite and rational terms.

The engine provides matching and single steps, deterministic strategies,
decidable normal-form checking on rational terms, and bounded breadth-first
search for normalization and reachability.  Reductions are recorded as
traces made of epochs: a finite run of steps optionally closed by one
omega-limit.  A limit is only ever attached together with a pump
certificate stating that the closing run wraps a fixed context forever at
strictly increasing depth.  The pump detector assumes a chained run of
genuine steps and does not retest what that implies; :func:`replay_trace`
establishes it by re-applying every step before it rechecks a closure.
:func:`validate_certificate` rechecks one by rerunning the pump detector on
the epoch's own steps, so the recheck is not independent of the code that
produced it (see ROADMAP item 2).

Limit detection is sound but deliberately incomplete: a reduction that
converges without exhibiting a literal pump is reported as "no closure
found", never as a wrong limit.
"""

from __future__ import annotations

import heapq
import random
import re
from collections import deque
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from . import _collector_paused
from .terms import (
    PositionError, Signature, Symbol, Term, TermError, TermSyntaxError,
    bisim_equal, canon_key, cyclify, is_finite, is_ground, is_var, _path,
    _parse, _reachable, _rebuild, print_term, replace_at,
    subterm_at, term_symbols, truncate_prefix, var, variables,
)

__all__ = [
    "Rule", "Trs", "TrsError", "NoMatchError", "Step", "PumpCertificate",
    "Closure", "Epoch", "Trace", "StrategyRun", "ClosureAttempt",
    "NormalizeResult", "ReachResult", "Reachability",
    "DEFAULT_DEPTH_BOUND", "DEFAULT_MAX_EPOCHS", "DEFAULT_FUEL",
    "match", "instantiate", "find_redexes", "apply_step",
    "is_normal_form", "only_self_loops", "strategy_steps", "run_strategy",
    "close_limit", "validate_certificate", "bounded_normalize", "bounded_reach",
    "step_reachability", "limit_approximant", "stable_prefix",
    "replay_trace", "parse_trs", "format_trs", "render_trace",
]

DEFAULT_DEPTH_BOUND = 32
DEFAULT_MAX_EPOCHS = 4
DEFAULT_FUEL = 10_000


class TrsError(TermError):
    """Bad rule, bad system, or a rewrite request that cannot be served."""


class NoMatchError(TrsError):
    """The named rule does not match at the requested (valid) position."""


class Rule:
    """A rewrite rule lhs -> rhs; both sides are finite patterns."""

    __slots__ = ("rid", "lhs", "rhs")

    def __init__(self, rid: str, lhs: Term, rhs: Term):
        if is_var(lhs):
            raise TrsError(f"rule {rid}: left-hand side is a variable")
        if not is_finite(lhs) or not is_finite(rhs):
            raise TrsError(f"rule {rid}: rule sides must be finite")
        missing = variables(rhs) - variables(lhs)
        if missing:
            raise TrsError(
                f"rule {rid}: rhs variables {sorted(missing)} not in lhs")
        self.rid, self.lhs, self.rhs = rid, lhs, rhs


_NO_REDEX = float("inf")


class Trs:
    """An ordered list of rules over a signature.

    Rule order is the tie-break order everywhere a choice must be
    deterministic.

    A system keeps its own redex table for find_redexes and
    is_normal_form, keyed by canonical id, since whether a rule matches
    depends only on the unfolding: per id, the depth of the shallowest
    redex (infinite when there is none) and, at a redex, the ids of the
    rules that match there, in rule order.  Every id below a cached id is
    cached too, so a term costs only its ids not seen before, whichever
    run or thread met the others.  The table lives as long as the system.
    """

    def __init__(self, sig: Signature, rules: Iterable[Rule], name: str = "",
                 construction: str = ""):
        self.sig = sig
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.name = name
        self.construction = construction
        self._by_id: dict[str, Rule] = {}
        self._by_root: dict = {}
        self._depth: dict[int, float] = {}
        self._rules: dict[int, tuple[str, ...]] = {}
        for r in self.rules:
            if r.rid in self._by_id:
                raise TrsError(f"duplicate rule id {r.rid}")
            self._by_id[r.rid] = r
            self._by_root.setdefault(r.lhs.label, []).append(r)
            for s in term_symbols(r.lhs) | term_symbols(r.rhs):
                if sig.get(s.name) != s:
                    raise TrsError(
                        f"rule {r.rid}: symbol {s!r} not declared in signature")

    def rule(self, rid: str) -> Rule:
        try:
            return self._by_id[rid]
        except KeyError:
            raise TrsError(f"no rule named {rid!r}") from None

    def rules_at(self, node: Term) -> tuple[str, ...]:
        """Ids of the rules whose lhs matches at node, in rule order."""
        return tuple(r.rid for r in self._by_root.get(node.label, ())
                     if match(r.lhs, node) is not None)

    def _shallowest(self, t: Term) -> float:
        """Depth of the shallowest redex in t's unfolding, or inf."""
        d = self._depth.get(canon_key(t))
        if d is None:
            self._fill(t)
            d = self._depth[t._cid]
        return d

    def _fill(self, t: Term) -> None:
        depth = self._depth
        fresh: dict[int, Term] = {}  # new id -> one node with that id
        stack = [t]
        while stack:
            n = stack.pop()
            if n._cid not in depth and n._cid not in fresh:
                fresh[n._cid] = n
                stack.extend(n.children)
        # Shortest paths to a redex over the reversed edges among the new
        # ids, seeded by the redexes and by the depths of cached children.
        # Cycles rule out a single bottom-up pass.
        rules: dict[int, tuple[str, ...]] = {}
        dist: dict[int, float] = {}
        parents: dict[int, list[int]] = {}
        for k, n in fresh.items():
            rids = self.rules_at(n)
            if rids:
                rules[k] = rids
            d = 0 if rids else _NO_REDEX
            for c in n.children:
                if c._cid in fresh:
                    parents.setdefault(c._cid, []).append(k)
                else:
                    d = min(d, depth[c._cid] + 1)
            dist[k] = d
        heap = [(d, k) for k, d in dist.items() if d < _NO_REDEX]
        heapq.heapify(heap)
        while heap:
            d, k = heapq.heappop(heap)
            if d > dist[k]:
                continue
            for p in parents.get(k, ()):
                if d + 1 < dist[p]:
                    dist[p] = d + 1
                    heapq.heappush(heap, (d + 1, p))
        # Threads may share a system and read without a lock.  Each table
        # grows by one update from a dict of int keys, which runs no
        # Python code and so is not interleaved, and rules go first: a
        # reader that finds an id's depth finds its rules and the depth
        # of every id below it.  A race only fills an id twice, alike.
        self._rules.update(rules)
        depth.update(dist)

    def without(self, *rids: str) -> "Trs":
        return Trs(self.sig, [r for r in self.rules if r.rid not in rids],
                   name=self.name, construction=self.construction)

    def __repr__(self):
        return f"<trs {self.name or '?'} {len(self.rules)} rules>"


def match(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """First-order matching of a finite pattern against a term.

    Repeated pattern variables are compared with bisim_equal, so non-linear
    patterns work on rational subjects.
    """
    bnd: dict[str, Term] = {}
    todo = [(pattern, subject)]
    while todo:
        p, s = todo.pop()
        if p.label.__class__ is str:  # a variable; is_var, inline
            old = bnd.get(p.label)
            if old is None:
                bnd[p.label] = s
            elif not bisim_equal(old, s):
                return None
            continue
        if s.label.__class__ is str or p.label != s.label:
            return None
        todo.extend(zip(p.children, s.children))
    return bnd


def instantiate(pattern: Term, binding: dict[str, Term]) -> Term:
    """Build the instance of a finite pattern under a binding.  Nodes are
    built after their children, left to right, on an explicit stack, so
    depth costs no recursion."""
    if pattern.label.__class__ is str:
        return binding[pattern.label]
    if not pattern.children:
        return pattern
    stack = [(pattern, [])]  # open nodes, each with its children built so far
    while True:
        node, built = stack[-1]
        kids = node.children
        while len(built) < len(kids):
            c = kids[len(built)]
            if c.label.__class__ is str:
                built.append(binding[c.label])
            elif c.children:
                stack.append((c, []))
                break
            else:
                built.append(c)
        else:
            stack.pop()
            t = Term(node.label, tuple(built))
            if not stack:
                return t
            stack[-1][1].append(t)


def find_redexes(trs: Trs, t: Term, depth_bound: int
                 ) -> list[tuple[tuple[int, ...], str]]:
    """All (position, rule id) pairs with |position| <= depth_bound, in
    lexicographic position order, rule order within a position.

    The depth bound is mandatory because rational terms have infinitely
    many positions.  A subterm whose shallowest redex lies beyond the
    bound is not entered.  Rules are matched only at canonical ids the
    system's redex table has not seen, in this call or any earlier one.

    A node whose shallowest redex lies d below it heads none above that
    depth, so a chain of up to d single children below it is passed with
    no lookup and no push; only the node the chain ends at can head one.
    """
    if depth_bound < 0:
        raise TrsError("depth_bound must be >= 0")
    trs._shallowest(t)  # caches every id of t
    depth, rules = trs._depth, trs._rules
    out: list[tuple[tuple[int, ...], str]] = []
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        pos, node = stack.pop()
        d = depth[node._cid]
        if d > depth_bound - len(pos):
            continue
        k = 0
        kids = node.children
        while k < d and len(kids) == 1:
            node = kids[0]
            kids = node.children
            k += 1
        if k:
            pos += (1,) * k
        for rid in rules.get(node._cid, ()):
            out.append((pos, rid))
        if len(pos) < depth_bound:
            for i in range(len(kids), 0, -1):
                stack.append((pos + (i,), kids[i - 1]))
    return out


class Step:
    """A single rewrite step at a recorded position."""

    __slots__ = ("position", "rule_id", "before", "after")

    def __init__(self, position: tuple[int, ...], rule_id: str, before: Term,
                 after: Term):
        self.position, self.rule_id = position, rule_id
        self.before, self.after = before, after

    @property
    def depth(self) -> int:
        return len(self.position)


def apply_step(trs: Trs, t: Term, pos: tuple[int, ...], rule_id: str) -> Step:
    """Rewrite t at pos with the named rule; the position must match."""
    rule = trs.rule(rule_id)
    pos = tuple(pos)
    spine = _path(t, pos)
    bnd = match(rule.lhs, spine[-1])
    if bnd is None:
        raise NoMatchError(f"rule {rule_id} does not match at {list(pos)}")
    after = _rebuild(spine, pos, instantiate(rule.rhs, bnd))
    return Step(pos, rule_id, t, after)


def is_normal_form(trs: Trs, t: Term) -> bool:
    """Decide normality of a ground (finite or rational) term.

    A rational term has finitely many distinct nodes; a rule matches at
    some position iff it matches at one of them.  The answer is read from
    the system's redex table, filling only ids it has not seen.
    """
    if not is_ground(t):
        raise TrsError("is_normal_form requires a ground term")
    return trs._shallowest(t) == _NO_REDEX


def only_self_loops(trs: Trs, t: Term) -> bool:
    """Whether every redex of t, at any depth, is a self-loop: contracting
    it reproduces t up to bisimilarity.

    Contracting at p replaces t|p by the contractum, which leaves t's
    unfolding as it was iff the contractum is bisimilar to t|p.  That
    depends only on the node at p and the rule, so each distinct node of
    t is tested once, whatever its positions."""
    return all(canon_key(apply_step(trs, n, (), rid).after) == canon_key(n)
               for n in _reachable(t) for rid in trs.rules_at(n))


# ---------------------------------------------------------------------------
# Traces and omega-limits


class PumpCertificate:
    """Evidence that a run of steps wraps a fixed context forever.

    From `cycle_start`, every `cycle_length` steps repeat the previous
    block shifted by `offset` below `hole`; the minimal step depth then
    grows by |offset| per iteration, which forces convergence.
    """

    __slots__ = ("cycle_start", "cycle_length", "hole", "offset",
                 "context_growth", "min_depth_profile")

    def __init__(self, cycle_start: int, cycle_length: int,
                 hole: tuple[int, ...], offset: tuple[int, ...],
                 context_growth: str, min_depth_profile: tuple[int, ...]):
        self.cycle_start, self.cycle_length = cycle_start, cycle_length
        self.hole, self.offset = hole, offset
        self.context_growth = context_growth
        self.min_depth_profile = min_depth_profile


class Closure:
    __slots__ = ("limit", "certificate")

    def __init__(self, limit: Term, certificate: PumpCertificate):
        self.limit, self.certificate = limit, certificate


class Epoch:
    """A finite run of steps, optionally closed by one omega-limit."""

    __slots__ = ("steps", "closure")

    def __init__(self, steps: tuple[Step, ...], closure: Optional[Closure] = None):
        self.steps, self.closure = steps, closure

    @property
    def end(self) -> Term:
        if self.closure is not None:
            return self.closure.limit
        if self.steps:
            return self.steps[-1].after
        raise TrsError("empty epoch has no end term")


class Trace:
    """An ordinal-indexed reduction at desk scale: a tower of epochs."""

    __slots__ = ("start", "epochs")

    def __init__(self, start: Term, epochs: tuple[Epoch, ...]):
        self.start, self.epochs = start, epochs

    @property
    def final(self) -> Term:
        for ep in reversed(self.epochs):
            if ep.closure is not None or ep.steps:
                return ep.end
        return self.start

    @property
    def all_steps(self) -> list[Step]:
        return [s for ep in self.epochs for s in ep.steps]

    @property
    def total_steps(self) -> int:
        return sum(len(ep.steps) for ep in self.epochs)

    @property
    def closures(self) -> int:
        return sum(1 for ep in self.epochs if ep.closure is not None)


class ClosureAttempt:
    __slots__ = ("closure", "diagnostics")

    def __init__(self, closure: Optional[Closure], diagnostics: dict):
        self.closure, self.diagnostics = closure, diagnostics


def _with_context(steps: list[Step], closure: Closure) -> Closure:
    """The closure with its certificate's context string printed; pump
    checks leave it empty, so only returned certificates pay for it."""
    cert = closure.certificate
    wrapped = subterm_at(steps[cert.cycle_start + cert.cycle_length].before,
                         cert.hole)
    context = print_term(replace_at(wrapped, cert.offset, var("HOLE")))
    return Closure(closure.limit, PumpCertificate(
        cert.cycle_start, cert.cycle_length, cert.hole, cert.offset, context,
        cert.min_depth_profile))


def _try_pump(steps: list[Step], i: int, length: int) -> Optional[Closure]:
    """Validate the pump candidate starting at step i with the given cycle
    length, requiring the pattern to persist to the end of the run.

    The steps must be a chained run of genuine steps: close_limit and
    validate_certificate check the chain, replay_trace re-applies each
    step first, and the search applies the steps of its history.  Then
    every step from i on lies below ``hole``, so the term one cycle on
    equals t0 outside it, and the step depths grow by |offset| per
    cycle; neither is tested again.  The last step's ``after`` is never
    read, so the search may pass a step it has not applied yet.

    The hole is the longest common prefix of the positions of steps[i:].
    Under the lexicographic order every position lies between the least
    and the greatest, so it shares whatever prefix those two share: the
    hole is their common prefix, found with one ``min``, one ``max`` and
    one ``_common_prefix`` call.  A negative i names no step and is
    refused."""
    n = len(steps)
    if i < 0 or i + 2 * length > n:
        return None
    ps = [s.position for s in steps[i:]]
    hole = _common_prefix(min(ps), max(ps))
    rel = [p[len(hole):] for p in ps]
    base, shifted = rel[0], rel[length]
    if len(shifted) <= len(base) or shifted[len(shifted) - len(base):] != base:
        return None
    offset = shifted[:len(shifted) - len(base)]
    for j in range(len(rel) - length):
        if steps[i + j + length].rule_id != steps[i + j].rule_id:
            return None
        if rel[j + length] != offset + rel[j]:
            return None
    t0 = steps[i].before
    t1 = steps[i + length].before
    try:
        seed = subterm_at(t0, hole)
        wrapped = subterm_at(t1, hole)
        reentry = subterm_at(wrapped, offset)
    except PositionError:
        return None
    if not bisim_equal(reentry, seed):
        return None
    first = min(s.depth for s in steps[i:i + length])
    profile = [first + k * len(offset) for k in range((n - i) // length)]
    limit = replace_at(t0, hole, cyclify(wrapped, offset))
    cert = PumpCertificate(
        cycle_start=i,
        cycle_length=length,
        hole=hole,
        offset=offset,
        context_growth="",
        min_depth_profile=tuple(profile),
    )
    return Closure(limit, cert)


def _common_prefix(a: tuple, b: tuple) -> tuple:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def close_limit(steps: Iterable[Step]) -> ClosureAttempt:
    """Look for a certified pump in a chained run of steps.

    Returns the rational limit term and its certificate when the run is
    seen to wrap a fixed nonempty context at strictly increasing depth;
    otherwise returns no closure together with a bounded min-depth
    witness.  Every start and period is tried, so this is cubic in the
    run's length; the search tests only suffix pumps, from per-node
    history (see _search).
    """
    steps = list(steps)
    n = len(steps)
    if not _chained(steps):
        raise TrsError("close_limit requires a chained run of steps")
    for i in range(n - 1):
        for length in range(1, (n - i) // 2 + 1):
            got = _try_pump(steps, i, length)
            if got is not None:
                return ClosureAttempt(_with_context(steps, got), {})
    min_depth = min((s.depth for s in steps), default=0)
    witness = max((j for j, s in enumerate(steps) if s.depth == min_depth),
                  default=None)
    return ClosureAttempt(None, {
        "min_depth": min_depth,
        "min_depth_index": witness,
        "scanned_steps": n,
    })


def _chained(steps: list[Step]) -> bool:
    """Each step starts from the term the step before it ended with."""
    return all(a.after is b.before or bisim_equal(a.after, b.before)
               for a, b in zip(steps, steps[1:]))


def validate_certificate(epoch: Epoch) -> bool:
    """Recheck an epoch's closure by rerunning the pump detector, the code
    that produced it, on the epoch's steps and comparing the limits.  Of
    the certificate only ``cycle_start`` and ``cycle_length`` are read;
    ``hole`` and ``offset`` may be left empty.  An epoch whose steps do
    not chain is refused.  That each step is genuine is assumed, not
    checked: replay_trace re-applies every step before it calls this.  A
    fault of the detector itself goes unseen (ROADMAP item 2)."""
    if epoch.closure is None:
        return True
    steps = list(epoch.steps)
    if not _chained(steps):
        return False
    cert = epoch.closure.certificate
    redo = _try_pump(steps, cert.cycle_start, cert.cycle_length)
    if redo is None:
        return False
    return bisim_equal(redo.limit, epoch.closure.limit)


# ---------------------------------------------------------------------------
# Strategies


class StrategyRun:
    __slots__ = ("trace", "fuel_exhausted")

    def __init__(self, trace: Trace, fuel_exhausted: bool):
        self.trace, self.fuel_exhausted = trace, fuel_exhausted


def strategy_steps(trs: Trs, t: Term,
                   depth_bound: int = DEFAULT_DEPTH_BOUND,
                   order: Optional[Callable[[tuple[int, ...], str], object]] = None,
                   rng: Optional[random.Random] = None) -> Iterator[Step]:
    """Yield strategy steps from t until no productive redex remains.

    Redexes within the depth bound come in find_redexes order, or sorted
    by ``order(position, rule_id)``.  Redexes whose contraction
    reproduces the current term (pure self-loops) are skipped: taking one
    forever makes no progress and would trap any position-first choice
    at the shallowest such rule.  The first productive redex is taken,
    or with ``rng`` one drawn uniformly from all productive redexes.
    """
    cur = t
    while True:
        reds = find_redexes(trs, cur, depth_bound)
        if order is not None:
            reds.sort(key=lambda pr: order(*pr))
        choices = []
        for pos, rid in reds:
            st = apply_step(trs, cur, pos, rid)
            if canon_key(st.after) != canon_key(cur):
                choices.append(st)
                if rng is None:
                    break
        if not choices:
            return
        st = choices[0] if rng is None else rng.choice(choices)
        yield st
        cur = st.after


def run_strategy(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL,
                 depth_bound: int = DEFAULT_DEPTH_BOUND,
                 seed: Optional[int] = None,
                 order: Optional[Callable[[tuple[int, ...], str], object]] = None
                 ) -> StrategyRun:
    """Take at most fuel steps of strategy_steps from t.

    With no ``seed`` each step takes the first productive redex in
    find_redexes order, or in ``order`` when given; with a seed it draws
    uniformly from all productive redexes, seeded with it.  The run is
    flagged fuel_exhausted only when a productive step remains after the
    fuel runs out.
    """
    if fuel < 0:
        raise TrsError("fuel must be >= 0")
    rng = None if seed is None else random.Random(seed)
    steps = list(islice(strategy_steps(trs, t, depth_bound, order, rng), fuel + 1))
    return StrategyRun(Trace(t, (Epoch(tuple(steps[:fuel])),)), len(steps) > fuel)


# ---------------------------------------------------------------------------
# Bounded search


class _Node:
    """A search state.  A step child is built unapplied: its ``term`` and
    ``via_step`` stay None, and ``redex`` names the step, until the child
    is popped or a returned trace runs through it (see _search)."""

    __slots__ = ("term", "steps", "closures", "parent", "via_step",
                 "via_closure", "epoch_len", "redex")

    def __init__(self, term: Optional[Term], steps: int, closures: int,
                 parent: Optional[_Node], via_step: Optional[Step],
                 via_closure: Optional[Closure], epoch_len: int,
                 redex: Optional[tuple[tuple[int, ...], str]] = None):
        self.term, self.steps, self.closures = term, steps, closures
        self.parent, self.via_step, self.via_closure = parent, via_step, via_closure
        self.epoch_len, self.redex = epoch_len, redex


_CLOSE_HISTORY_CAP = 512


def _reached(trs: Trs, node: _Node) -> Term:
    """The node's term, applying the step that leads to it on first use."""
    if node.term is None:
        pos, rid = node.redex
        node.via_step = apply_step(trs, node.parent.term, pos, rid)
        node.term = node.via_step.after
    return node.term


def _epoch_steps(node: _Node) -> list[Step]:
    """The steps of an expanded node's epoch, all applied."""
    out: list[Step] = []
    cur = node
    while cur.via_step is not None:
        if out and cur.via_step.after is not out[-1].before:
            raise TrsError("search history is not a chained run of steps")
        out.append(cur.via_step)
        cur = cur.parent
    out.reverse()
    return out


def _pump_periods(rids: list[str]) -> dict[str, list[int]]:
    """Candidate periods of a suffix pump ending one step after a run
    with these rule ids, in increasing order, keyed by that step's rule
    id.  A pump repeats its rule ids one period later."""
    m = len(rids)
    table: dict[str, list[int]] = {}
    for length in range(1, (m + 1) // 2 + 1):
        if rids[m - length + 1:] == rids[m - 2 * length + 1:m - length]:
            table.setdefault(rids[m - length], []).append(length)
    return table


def _node_trace(trs: Trs, node: _Node, start: Term) -> Trace:
    """The trace from start to node.  Steps not yet applied are applied,
    and each closure's certificate gets its context string."""
    moves: list[tuple[Optional[Step], Optional[Closure]]] = []
    cur = node
    while cur.parent is not None:
        if cur.via_closure is None:
            _reached(trs, cur)
        moves.append((cur.via_step, cur.via_closure))
        cur = cur.parent
    moves.reverse()
    epochs: list[Epoch] = []
    pending: list[Step] = []
    for st, cl in moves:
        if st is not None:
            pending.append(st)
        else:
            epochs.append(Epoch(tuple(pending), _with_context(pending, cl)))
            pending = []
    epochs.append(Epoch(tuple(pending)))
    if len(epochs) > 1 and not epochs[-1].steps:
        epochs = epochs[:-1]
    return Trace(start, tuple(epochs))


class NormalizeResult:
    __slots__ = ("found", "trace", "normal_form", "diagnostics")

    def __init__(self, found: bool, trace: Optional[Trace],
                 normal_form: Optional[Term], diagnostics: dict):
        self.found, self.trace = found, trace
        self.normal_form, self.diagnostics = normal_form, diagnostics


class ReachResult:
    __slots__ = ("reached", "trace", "diagnostics")

    def __init__(self, reached: bool, trace: Optional[Trace], diagnostics: dict):
        self.reached, self.trace, self.diagnostics = reached, trace, diagnostics


def _try_untried(untried: list[tuple], heap: list[tuple], done: set[int],
                 goal: Callable[[Term, int], bool],
                 pending: Optional[_Node]) -> Optional[_Node]:
    """Try the pumps of the untried children in push order and empty the
    list.  A certified limit whose key is not yet expanded enters the
    heap under the seq reserved for it, or, if it is a goal, becomes the
    pending goal when it closes in fewer (steps, closures).  Returns the
    pending goal."""
    for child, hist, lengths, lseq in untried:
        pos, rid = child.redex
        hist[-1] = Step(pos, rid, child.parent.term, None)
        for length in lengths:
            cl = _try_pump(hist, len(hist) - 2 * length, length)
            if cl is not None:
                break
        if cl is None or (lk := canon_key(cl.limit)) in done:
            continue
        gchild = _Node(cl.limit, child.steps, child.closures + 1, child,
                       None, cl, 0)
        if not goal(cl.limit, lk):
            heapq.heappush(heap, (gchild.steps, gchild.closures, lseq, gchild))
        elif pending is None or (gchild.steps, gchild.closures) < \
                (pending.steps, pending.closures):
            pending = gchild
    untried.clear()
    return pending


@_collector_paused
def _search(trs: Trs, start: Term, goal: Callable[[Term, int], bool],
            fuel: int, max_epochs: int, depth_bound: int
            ) -> tuple[Optional[Trace], Optional[Term], dict]:
    """Deterministic best-first search over (steps, closures), preferring
    fewer closures; ties broken by position-then-rule order.  States are
    memoized modulo bisimilarity via canonical keys.  Returns the trace
    to a goal term and that term, or (None, None, diagnostics).

    The heap holds (steps, closures, seq, node), seq unique.  A step
    child is the bare entry (steps, closures, seq, parent, redex), built
    into a node and applied only when popped.  A child whose rule id
    admits a suffix pump is instead pushed at once as a built, unapplied
    node under seq k, with k+1 reserved for its limit, and goes on the
    ``untried`` list with its parent's epoch history (built once per
    expanded node) and its candidate periods.  Its pumps are not tried
    when its parent is expanded but at a flush: just before the first
    pop of an entry with at least the untried children's step count
    (they all share one, as every push has one step more than its pop),
    and when fuel ends the loop.  A search that ends inside a level thus
    never certifies the limits of the next.

    Every entry popped before a flush has fewer steps than the limits it
    pushes, and each limit takes its reserved seq, so the heap pops in
    the same order as if the pumps were tried at the parent: a certified
    limit still enters the frontier before the rest of its level, so a
    closing run is not starved by level breadth, and a goal limit
    becomes ``pending`` before the first pop that could end the search
    on it.  A limit whose key was expanded since its parent is dropped
    at the flush rather than popped as a duplicate.  The cyclic
    collector is paused for the call.
    """
    if fuel < 0:
        raise TrsError("fuel must be >= 0")
    if max_epochs < 0:
        raise TrsError("max_epochs must be >= 0")
    if depth_bound < 0:
        raise TrsError("depth_bound must be >= 0")
    if not is_ground(start):
        raise TrsError("search requires a ground start term")
    root = _Node(start, 0, 0, None, None, None, 0)
    heap: list[tuple] = [(0, 0, 0, root)]
    seq = 1
    done: set[int] = set()
    expansions = 0
    deepest = root
    pending: Optional[_Node] = None  # goal reached via a fresh closure
    untried: list[tuple] = []  # (child, hist, lengths, limit seq)
    while heap and expansions < fuel:
        if untried and heap[0][0] >= untried[0][0].steps:
            pending = _try_untried(untried, heap, done, goal, pending)
        entry = heapq.heappop(heap)
        if pending is not None and entry[0] >= pending.steps:
            break
        if len(entry) == 4:
            node = entry[3]
        else:
            steps, closures, _, parent, redex = entry
            node = _Node(None, steps, closures, parent, None, None,
                         parent.epoch_len + 1, redex)
        term = _reached(trs, node)
        key = canon_key(term)
        if key in done:
            continue
        done.add(key)
        expansions += 1
        if node.steps > deepest.steps:
            deepest = node
        if goal(term, key):
            return _node_trace(trs, node, start), term, {}
        periods: dict[str, list[int]] = {}
        if node.closures < max_epochs - 1 and \
                1 <= node.epoch_len < _CLOSE_HISTORY_CAP:
            # The last slot holds a child's step while its pumps are tried.
            hist = _epoch_steps(node)
            periods = _pump_periods([s.rule_id for s in hist])
            hist.append(None)
        steps, closures = node.steps + 1, node.closures
        for pos, rid in find_redexes(trs, term, depth_bound):
            if rid in periods:
                child = _Node(None, steps, closures, node, None, None,
                              node.epoch_len + 1, (pos, rid))
                heapq.heappush(heap, (steps, closures, seq, child))
                untried.append((child, hist, periods[rid], seq + 1))
                seq += 2
            else:
                heapq.heappush(heap, (steps, closures, seq, node, (pos, rid)))
                seq += 1
    if untried:
        pending = _try_untried(untried, heap, done, goal, pending)
    if pending is not None:
        return _node_trace(trs, pending, start), pending.term, {}
    diag = {
        "reason": "fuel" if heap else "frontier",
        "expansions": expansions,
        "distinct_terms": len(done),
        "max_steps": deepest.steps,
    }
    diag["stable_prefix_depth"], prefix = stable_prefix(
        _node_trace(trs, deepest, start), depth_bound)
    diag["stable_prefix"] = (print_term(prefix, trs.sig)
                             if prefix is not None else None)
    return None, None, diag


def bounded_normalize(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL,
                      max_epochs: int = DEFAULT_MAX_EPOCHS,
                      depth_bound: int = DEFAULT_DEPTH_BOUND) -> NormalizeResult:
    """Search for a normal form, branching on redex choice and on closing
    the current epoch with a certified omega-limit."""
    def goal(term: Term, key: int) -> bool:
        return is_normal_form(trs, term)

    trace, nf, diag = _search(trs, t, goal, fuel, max_epochs, depth_bound)
    return NormalizeResult(trace is not None, trace, nf, diag)


def bounded_reach(trs: Trs, source: Term, target: Term,
                  fuel: int = DEFAULT_FUEL,
                  max_epochs: int = DEFAULT_MAX_EPOCHS,
                  depth_bound: int = DEFAULT_DEPTH_BOUND) -> ReachResult:
    """Same search as bounded_normalize with goal `current ~ target`."""
    if not is_ground(target):
        raise TrsError("reach target must be ground")
    tkey = canon_key(target)

    def goal(term: Term, key: int) -> bool:
        return key == tkey

    trace, _, diag = _search(trs, source, goal, fuel, max_epochs, depth_bound)
    return ReachResult(trace is not None, trace, diag)


class Reachability:
    """Plain step reachability (no closures): BFS distances and edges."""

    __slots__ = ("start", "dist", "terms", "edges", "frontier_exhausted",
                 "expansions")

    def __init__(self, start: Term, dist: dict[int, int], terms: dict[int, Term],
                 edges: list[tuple[int, int, str]], frontier_exhausted: bool,
                 expansions: int):
        self.start, self.dist, self.terms, self.edges = start, dist, terms, edges
        self.frontier_exhausted, self.expansions = frontier_exhausted, expansions


def step_reachability(trs: Trs, t: Term, fuel: int = DEFAULT_FUEL,
                      depth_bound: int = DEFAULT_DEPTH_BOUND) -> Reachability:
    """Breadth-first enumeration of the finite-step reduction graph."""
    if not is_ground(t):
        raise TrsError("search requires a ground start term")
    k0 = canon_key(t)
    dist = {k0: 0}
    terms = {k0: t}
    edges: list[tuple[int, int, str]] = []
    q = deque([t])
    expansions = 0
    while q and expansions < fuel:
        cur = q.popleft()
        ck = canon_key(cur)
        expansions += 1
        for pos, rid in find_redexes(trs, cur, depth_bound):
            st = apply_step(trs, cur, pos, rid)
            nk = canon_key(st.after)
            if nk not in dist:
                dist[nk] = dist[ck] + 1
                terms[nk] = st.after
                q.append(st.after)
            edges.append((ck, nk, rid))
    return Reachability(t, dist, terms, edges, not q, expansions)


# ---------------------------------------------------------------------------
# Convergence diagnostics


class Approximant:
    __slots__ = ("stable", "prefix", "witness")

    def __init__(self, stable: bool, prefix: Optional[Term], witness: Optional[int]):
        self.stable, self.prefix, self.witness = stable, prefix, witness


def limit_approximant(trace: Trace, d: int) -> Approximant:
    """Check whether the recorded rewrite activity has left depth < d.

    Stable means that from some step onward every rewrite position has
    length >= d; on a finite record this holds iff the last step is at
    depth >= d (vacuously if there are no steps).  The stable value is the
    depth-d truncation of the final term; otherwise the witness is the
    last too-shallow step index.
    """
    steps = trace.all_steps
    if steps and steps[-1].depth < d:
        return Approximant(False, None, len(steps) - 1)
    return Approximant(True, truncate_prefix(trace.final, d), None)


def stable_prefix(trace: Trace, max_depth: int) -> tuple[int, Optional[Term]]:
    """The largest d <= max_depth at which limit_approximant is stable,
    with its prefix; (-1, None) when max_depth < 0.

    Depth d is stable iff the last step is at depth >= d, so the answer
    is read off the last step instead of probing every d.
    """
    if max_depth < 0:
        return -1, None
    steps = trace.all_steps
    depth = min(max_depth, steps[-1].depth) if steps else max_depth
    return depth, truncate_prefix(trace.final, depth)


def replay_trace(trs: Trs, trace: Trace) -> bool:
    """Re-apply every recorded step and closure; True iff all reproduce."""
    cur = trace.start
    for ep in trace.epochs:
        for st in ep.steps:
            if not bisim_equal(cur, st.before):
                return False
            try:
                redo = apply_step(trs, cur, st.position, st.rule_id)
            except TermError:  # no such rule, position or match
                return False
            if not bisim_equal(redo.after, st.after):
                return False
            cur = st.after
        if ep.closure is not None:
            if not validate_certificate(ep):
                return False
            cur = ep.closure.limit
    return True


# ---------------------------------------------------------------------------
# TRS files and trace rendering


def format_trs(trs: Trs, header: Iterable[str] = ()) -> str:
    """Emit the file form: comments, one `sig` line, then rules in order."""
    lines = [f"# {h}" for h in header]
    syms = " ".join(f"{s.name}/{s.arity}" for s in trs.sig)
    if syms:
        lines.append(f"sig {syms}")
    for r in trs.rules:
        lines.append(f"rule {r.rid}: {print_term(r.lhs)} -> {print_term(r.rhs)}")
    return "\n".join(lines) + "\n"


_RULE_RE = re.compile(r"rule\s+(?P<rid>\S+)\s*:\s*(?P<lhs>.*?)->(?P<rhs>.*)$")
_SIG_ITEM_RE = re.compile(r"([A-Za-z0-9_][A-Za-z0-9_']*)/(\d+)")


def parse_trs(text: str, name: str = "") -> Trs:
    """Parse the TRS file format.

    A `sig` line declares `name/arity` items and nothing else, and every
    symbol of every rule must be declared on one.  Each rule side is read
    once against that signature, as `parse_term` reads a term: a bare
    lowercase name the signature lacks is a variable.  Comments are
    ignored.  A syntax error in a rule side gives its line and column in
    the file.
    """
    sig = Signature()
    # (rule id, [(lhs, where it starts), (rhs, where it starts)])
    rule_lines: list[tuple[str, list[tuple[str, tuple[int, int]]]]] = []
    construction = ""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*construction:\s*(\S+)", line)
            if m:
                construction = m.group(1)
            continue
        words = list(re.finditer(r"\S+", raw.partition("#")[0]))
        if words[0][0] == "sig":
            for w in words[1:]:
                m = _SIG_ITEM_RE.fullmatch(w[0])
                if m is None:
                    raise TermSyntaxError(
                        f"bad sig item {w[0]!r}, expected name/arity", ln,
                        w.start() + 1)
                sig.declare(Symbol(m[1], int(m[2])))
            continue
        m = _RULE_RE.match(line)
        if not m:
            raise TermSyntaxError(f"bad TRS line: {raw!r}", ln, 1)
        col = len(raw) - len(raw.lstrip()) + 1
        rule_lines.append((m["rid"], [(m[s], (ln, col + m.start(s)))
                                      for s in ("lhs", "rhs")]))

    rules = [Rule(rid, *(_parse(side, sig, False, at) for side, at in texts))
             for rid, texts in rule_lines]
    return Trs(sig, rules, name=name, construction=construction)


def _ordinal(epoch: int, i: int) -> str:
    if epoch == 0:
        return str(i)
    if epoch == 1:
        return f"w+{i}"
    return f"w*{epoch}+{i}"


def render_trace(trace: Trace, show_terms: bool = False,
                 sig: Optional[Signature] = None) -> str:
    """Line-oriented trace: `<ordinal> @<dot-path> <rule-id>` per step,
    `omega-limit:` plus a certificate summary per closure.  Terms print
    with binder names that avoid the symbols of ``sig``."""
    lines = [f"start: {print_term(trace.start, sig)}"]
    for e, ep in enumerate(trace.epochs):
        for i, st in enumerate(ep.steps):
            path = ".".join(str(p) for p in st.position) or "root"
            lines.append(f"{_ordinal(e, i)} @{path} {st.rule_id}")
            if show_terms:
                lines.append(f"    {print_term(st.after, sig)}")
        if ep.closure is not None:
            cert = ep.closure.certificate
            lines.append(f"omega-limit: {print_term(ep.closure.limit, sig)}")
            lines.append(
                f"    pump: start={cert.cycle_start} len={cert.cycle_length}"
                f" hole={list(cert.hole)} offset={list(cert.offset)}"
                f" context={cert.context_growth}"
                f" depths={list(cert.min_depth_profile)}")
    return "\n".join(lines)
