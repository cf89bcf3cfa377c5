"""Non-deterministic one-sided Turing machines on ultimately periodic
omega-tapes.

Tapes are words ``prefix . cycle^w`` over the machine alphabet; a
configuration is a state, a head position ``i >= 0`` and a finite overlay
of written cells on top of the base word.  Writes that merely restore the
base symbol are dropped, so overlay equality is semantic.  ``nd_steps``
is the one successor function, and a run is its list of configurations:
the move between two consecutive ones is read off them.

Run exploration expands the run tree breadth-first as one shared tree of
nodes with parent links, deduplicating configurations by (state, head
phase within the cycle, local tape window): each such key has one owner
node, the first to reach it.  A branch that reaches an owned key ends:
with a lasso certificate when the owner is its own ancestor; otherwise
merged when the owner holds the very same configuration, and
window-merged when only the keys agree.  Only an exact merge is evidence
for rejection: a window-merged branch may go on to accept.  A node keeps
its window, and a child's window is slid from its parent's by one cell;
overlays are copy-on-write, and a step that writes back the symbol it
read shares its parent's.  So a new configuration costs a constant
number of interpreted operations.  A run's configuration list is built
from the parent links only when its branch ends.  A lasso is only
certified after a static window check plus an explicit replay of the
candidate cycle's moves; its net head displacement `d` then classifies
the run: d > 0 means every position is eventually passed and left behind
(complete, non-oscillating, hence accepting), d = 0 means the same
configurations recur forever (oscillating, not complete).  Anything
without a certified lasso stays unknown.
"""

from __future__ import annotations

from typing import Optional

from . import _collector_paused
from .turing import MachineError, _Spec

__all__ = [
    "NdTmSpec", "OmegaWord", "NdConfig", "Lasso", "RunPrefix", "RunClass",
    "Membership", "parse_word", "format_word", "nd_steps",
    "explore_runs", "classify_run", "membership_semidecide", "visit_stats",
]


class NdTmSpec(_Spec):
    __slots__ = ()
    KIND = "nondet-one-sided"    # the kind line of a machine file

    def moves(self):
        return ((k, c) for k, choices in self.delta.items() for c in choices)


class OmegaWord:
    """An ultimately periodic word prefix . cycle^w."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[str, ...], cycle: tuple[str, ...]):
        if not cycle:
            raise MachineError("omega-word cycle must be nonempty")
        self.prefix, self.cycle = prefix, cycle

    def __eq__(self, other):
        return other.__class__ is OmegaWord and self.prefix == other.prefix \
            and self.cycle == other.cycle

    def at(self, i: int) -> str:
        if i < 0:
            raise MachineError("negative tape position")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def cells(self, n: int) -> tuple[str, ...]:
        """The first n cells, at(0) .. at(n - 1), in one slice."""
        k = n - len(self.prefix)
        if k <= 0:
            return self.prefix[:n]
        return self.prefix + (self.cycle * -(-k // len(self.cycle)))[:k]

    def normalized(self) -> "OmegaWord":
        cyc = list(self.cycle)
        for p in range(1, len(cyc)):
            if len(cyc) % p == 0 and cyc == cyc[:p] * (len(cyc) // p):
                cyc = cyc[:p]
                break
        pre = list(self.prefix)
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc = [cyc[-1]] + cyc[:-1]
        return OmegaWord(tuple(pre), tuple(cyc))


def parse_word(text: str, alphabet=None) -> OmegaWord:
    """Parse `<prefix>(<cycle>)^w`, one character per symbol."""
    text = text.strip()
    i = text.find("(")
    if i < 0 or not text.endswith(")^w"):
        raise MachineError(f"bad omega-word syntax {text!r}")
    prefix = tuple(text[:i])
    cycle = tuple(text[i + 1:-3])
    w = OmegaWord(prefix, cycle)
    if alphabet is not None:
        for s in prefix + cycle:
            if s not in alphabet:
                raise MachineError(f"word symbol {s!r} not in alphabet")
    return w


def format_word(w: OmegaWord) -> str:
    return "".join(w.prefix) + "(" + "".join(w.cycle) + ")^w"


class NdConfig:
    """State, head and finite write overlay on a base omega-word.

    A configuration is immutable once ``nd_steps`` has returned it, which
    may share one overlay dict among several configurations: its key
    ``(state, head, sorted overlay)`` is computed on first use and cached.
    Configurations order by that key, which is what the canonical run
    order of ``explore_runs`` compares.  The constructor copies
    ``writes`` without the cells that restore the base symbol.
    """

    __slots__ = ("word", "state", "head", "writes", "_k")

    def __init__(self, word: OmegaWord, state: str, head: int,
                 writes: Optional[dict[int, str]] = None):
        if head < 0:
            raise MachineError("head must be >= 0 on a one-sided tape")
        self.word = word
        self.state = state
        self.head = head
        self.writes = {i: f for i, f in writes.items()
                       if f != word.at(i)} if writes else {}
        self._k = None

    def symbol_at(self, i: int) -> str:
        got = self.writes.get(i)
        return got if got is not None else self.word.at(i)

    def _key(self):
        if self._k is None:
            self._k = (self.state, self.head, tuple(sorted(self.writes.items())))
        return self._k

    def __eq__(self, other):
        return isinstance(other, NdConfig) and self._key() == other._key() \
            and self.word == other.word

    def __lt__(self, other):
        return self._key() < other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<{self.state}@{self.head} writes={self.writes}>"


_new_config = object.__new__  # a config without the constructor's copy


def nd_steps(m: NdTmSpec, c: NdConfig) -> list[NdConfig]:
    """All successor configurations, in the machine's delta declaration
    order; left moves are blocked at head 0.  The move from c to a
    successor c2 is (c2.state, c2.symbol_at(c.head), c2.head - c.head), so
    distinct moves give distinct successors."""
    out = []
    word, head, writes = c.word, c.head, c.writes
    base = word.at(head)
    read = writes.get(head, base)
    for q2, f2, d in m.delta.get((c.state, read), ()):
        if d == "L" and head == 0:
            continue
        # A step that writes back what it read shares c's overlay; any
        # other gets its own copy, where a write restoring the base symbol
        # leaves no entry.  The overlay is final before anything can read
        # (and cache) the new config's key.
        if f2 == read:
            nw = writes
        else:
            nw = dict(writes)
            if f2 == base:
                nw.pop(head, None)
            else:
                nw[head] = f2
        nxt = _new_config(NdConfig)
        nxt.word, nxt.state, nxt.writes, nxt._k = word, q2, nw, None
        nxt.head = head + 1 if d == "R" else head - 1
        out.append(nxt)
    return out


class Lasso:
    __slots__ = ("cycle_start", "cycle_length", "displacement", "window")

    def __init__(self, cycle_start: int, cycle_length: int, displacement: int,
                 window: tuple[int, int]):
        self.cycle_start, self.cycle_length = cycle_start, cycle_length
        self.displacement, self.window = displacement, window

    def __eq__(self, other):
        return other.__class__ is Lasso and all(
            getattr(self, f) == getattr(other, f) for f in Lasso.__slots__)


class RunPrefix:
    """An explored run: configs from the start plus an optional lasso.

    status is one of lassoed/stuck/merged/window-merged/cut/failed; only
    lassoed runs classify beyond unknown.
    """

    __slots__ = ("configs", "status", "lasso")

    def __init__(self, configs: list[NdConfig], status: str,
                 lasso: Optional[Lasso] = None):
        self.configs, self.status, self.lasso = configs, status, lasso


class RunClass:
    __slots__ = ("complete", "oscillating", "accepting")

    def __init__(self, complete: str, oscillating: str, accepting: str):
        self.complete, self.oscillating = complete, oscillating
        self.accepting = accepting


def _default_radius(m: NdTmSpec, w: OmegaWord) -> int:
    return min(64, len(w.cycle) + len(m.states) + 2)


def _dedup_key(c: NdConfig, w: OmegaWord, radius: int):
    """The key explore_runs deduplicates by: state, head phase and the
    cells within radius of the head ("<" left of cell 0).  explore_runs
    slides each child's window from its parent's; this is the definition."""
    p, cl = len(w.prefix), len(w.cycle)
    if c.head < p:
        phase = ("abs", c.head)
    else:
        phase = ("cyc", (c.head - p) % cl)
    window = tuple(c.symbol_at(c.head + off) if c.head + off >= 0 else "<"
                   for off in range(-radius, radius + 1))
    return (c.state, phase, window)


def _validate_lasso(m: NdTmSpec, configs: list[NdConfig],
                    j: int, k: int) -> Optional[Lasso]:
    """Certify that the cycle configs[j..k] repeats forever.

    d = 0 requires literal recurrence of the whole configuration.  d > 0
    requires phase-aligned recurrence of the touched window, no writes
    beyond it, and an exact replay of the cycle shifted by d.
    """
    cj, ck = configs[j], configs[k]
    d = ck.head - cj.head
    if d < 0 or ck.state != cj.state:
        return None
    if d == 0 and cj != ck:
        return None
    touched = [c.head for c in configs[j:k + 1]]
    lo = min(touched) - cj.head
    hi = max(touched) - cj.head
    if d == 0:
        return Lasso(j, k - j, d, (lo, hi))
    if d % len(cj.word.cycle) != 0 or cj.head < len(cj.word.prefix):
        return None
    for off in range(lo, hi + 1):
        if cj.symbol_at(cj.head + off) != ck.symbol_at(ck.head + off):
            return None
    if any(pos > ck.head + hi for pos in ck.writes):
        return None
    # Replay the cycle once from ck, each move read off two configurations;
    # the moves' states and shifts bring it to ck's state at ck.head + d.
    cur = ck
    for a, b in zip(configs[j:k], configs[j + 1:k + 1]):
        h, f, dh = cur.head, b.symbol_at(a.head), b.head - a.head
        nxt = next((n for n in nd_steps(m, cur) if n.state == b.state
                    and n.head - h == dh and n.symbol_at(h) == f), None)
        if nxt is None or cur.symbol_at(h) != a.symbol_at(a.head):
            return None
        cur = nxt
    for off in range(lo, hi + 1):
        if cur.symbol_at(cur.head + off) != ck.symbol_at(ck.head + off):
            return None
    return Lasso(j, k - j, d, (lo, hi))


def _path(node) -> list[NdConfig]:
    """The configurations from the root to a run-tree node."""
    configs = []
    while node is not None:
        configs.append(node[0])
        node = node[1]
    configs.reverse()
    return configs


@_collector_paused
def explore_runs(m: NdTmSpec, w: OmegaWord, fuel: int = 200, width: int = 64,
                 radius: Optional[int] = None) -> list[RunPrefix]:
    """Breadth-first run-tree expansion up to fuel steps and width frontier.

    The tree is one set of nodes with parent links, and each dedup key has
    one owner node, the first to reach it; a run's configurations are
    built from the links only when its branch ends.  Returns the maximal
    explored branches in a canonical order.  Branch ends: stuck (no
    successor), lassoed (certified recurrence on the own ancestry),
    merged (another branch owns the key with the same configuration),
    window-merged (another branch owns the key with another configuration),
    failed (recurrence seen but not certifiable), cut (bounds).  The
    cyclic collector is paused for the call.
    """
    if fuel < 1 or width < 1:
        raise MachineError("fuel and width must be >= 1")
    r = radius if radius is not None else _default_radius(m, w)
    if r < 0:
        raise MachineError("radius must be >= 0")
    p, cl = len(w.prefix), len(w.cycle)
    phases = [("abs", i) for i in range(p)] + [("cyc", i) for i in range(cl)]
    # A node is (config, parent, depth, window): the window is the last
    # part of its dedup key, slid from the parent's by one cell.
    start = NdConfig(w, m.initial, 0)
    key = _dedup_key(start, w, r)
    root = (start, None, 0, key[2])
    owner = {key: root}
    runs: list[RunPrefix] = []
    frontier = [root]
    depth = 0
    while frontier and depth < fuel:
        depth += 1
        nxt_frontier = []
        for node in frontier:
            c = node[0]
            succ = nd_steps(m, c)
            if not succ:
                runs.append(RunPrefix(_path(node), "stuck"))
                continue
            pw, ph = node[3], c.head
            for nc in succ:
                h = nc.head
                if r == 0:
                    win = (nc.symbol_at(h),)
                elif h > ph:
                    win = (pw[1:r] + (nc.symbol_at(ph),) + pw[r + 1:]
                           + (nc.symbol_at(h + r),))
                else:
                    win = ((nc.symbol_at(h - r) if h >= r else "<",) + pw[:r]
                           + (nc.symbol_at(ph),) + pw[r + 1:2 * r])
                child = (nc, node, depth, win)
                phase = phases[h] if h < p else phases[p + (h - p) % cl]
                hit = owner.setdefault((nc.state, phase, win), child)
                if hit is child:
                    nxt_frontier.append(child)
                    continue
                # The key's owner is on this branch iff it is the branch's
                # node at the owner's depth.
                anc = node
                while anc[2] > hit[2]:
                    anc = anc[1]
                configs = _path(child)
                if anc is not hit:
                    runs.append(RunPrefix(
                        configs, "merged" if nc == hit[0] else "window-merged"))
                    continue
                lasso = _validate_lasso(m, configs, hit[2], depth)
                runs.append(RunPrefix(configs, "lassoed" if lasso else "failed",
                                      lasso))
        for node in nxt_frontier[width:]:
            runs.append(RunPrefix(_path(node), "cut"))
        frontier = nxt_frontier[:width]
    for node in frontier:
        runs.append(RunPrefix(_path(node), "cut"))
    # Runs share their prefixes' config objects, so comparing the lists
    # reads keys only where two runs part.
    runs.sort(key=lambda run: (len(run.configs), run.configs))
    return runs


def classify_run(r: RunPrefix) -> RunClass:
    """Classify from a validated lasso; everything else is unknown."""
    if r.lasso is None:
        return RunClass("unknown", "unknown", "unknown")
    if r.lasso.displacement > 0:
        return RunClass("yes", "no", "yes")
    return RunClass("no", "yes", "no")


class Membership:
    __slots__ = ("kind", "run")  # kind: accepted | rejected_exhausted | unknown

    def __init__(self, kind: str, run: Optional[RunPrefix] = None):
        self.kind, self.run = kind, run


@_collector_paused
def membership_semidecide(m: NdTmSpec, w: OmegaWord, fuel: int = 200,
                          width: int = 64,
                          radius: Optional[int] = None) -> Membership:
    """Search the run tree for an accepting run.

    accepted as soon as some branch pumps with positive displacement;
    rejected_exhausted only when the whole tree was exhausted and every
    branch ended stuck, merged into the same configuration on another
    branch, or in a certified zero-displacement lasso.  The collector
    stays paused until the verdict is read, so the runs it drops are
    freed before it resumes.
    """
    return _membership(explore_runs(m, w, fuel=fuel, width=width, radius=radius))


def _membership(runs: list[RunPrefix]) -> Membership:
    """membership_semidecide's verdict on the runs explore_runs returned."""
    for r in runs:
        if classify_run(r).accepting == "yes":
            return Membership("accepted", r)
    if all(r.status in ("stuck", "merged") or
           (r.status == "lassoed" and r.lasso.displacement == 0)
           for r in runs):
        return Membership("rejected_exhausted")
    return Membership("unknown")


def visit_stats(m: NdTmSpec, w: OmegaWord, steps: int) -> dict:
    """Brute-force statistics of the first-choice run prefix: per-position
    visit counts, the maximum visited position, and the run length."""
    c = NdConfig(w, m.initial, 0)
    counts: dict[int, int] = {}
    n = 0
    for _ in range(steps):
        counts[c.head] = counts.get(c.head, 0) + 1
        succ = nd_steps(m, c)
        if not succ:
            break
        c = succ[0]
        n += 1
    return {
        "visits": counts,
        "max_position": max(counts) if counts else 0,
        "max_revisit": max(counts.values()) if counts else 0,
        "steps": n,
    }
