"""Non-deterministic one-sided Turing machines on ultimately periodic
omega-tapes.

Tapes are words ``prefix . cycle^w`` over the machine alphabet; a
configuration is a state, a head position ``i >= 0`` and a finite overlay
of written cells on top of the base word.  Writes that merely restore the
base symbol are dropped, so overlay equality is semantic.

Run exploration expands the run tree breadth-first as one shared tree of
nodes with parent links, deduplicating configurations by (state, head
phase within the cycle, local tape window): each such key has one owner
node, the first to reach it.  A branch that reaches an owned key ends:
with a lasso certificate when the owner is its own ancestor, merged
otherwise.  A node keeps its window, and a child's window is slid from
its parent's by one cell; overlays are copy-on-write, and a step that
writes back the symbol it read shares its parent's.  So a new
configuration costs a constant number of interpreted operations.  A
run's configuration list is built from the parent links only when its
branch ends.  A lasso is only certified after a static window check plus an
explicit replay of the candidate cycle; its net head displacement `d`
then classifies the run: d > 0 means every position is eventually passed
and left behind (complete, non-oscillating, hence accepting), d = 0 means
the same configurations recur forever (oscillating, not complete).
Anything without a certified lasso stays unknown.
"""

from __future__ import annotations

from typing import Optional

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

    A configuration is immutable once ``_choices`` has returned it, which
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


def nd_steps(m: NdTmSpec, c: NdConfig) -> list[NdConfig]:
    """All successor configurations; left moves are blocked at head 0.
    Order follows the machine's delta declaration order."""
    return [nc for _, nc in _choices(m, c)]


_new_config = object.__new__  # a config without the constructor's copy


def _choices(m: NdTmSpec, c: NdConfig) -> list[tuple[tuple[str, str, str], "NdConfig"]]:
    out = []
    word, head, writes = c.word, c.head, c.writes
    base = word.at(head)
    read = writes.get(head, base)
    for ch in m.delta.get((c.state, read), ()):
        q2, f2, d = ch
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
        out.append((ch, nxt))
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

    status is one of lassoed/stuck/merged/cut/failed; only lassoed runs
    classify beyond unknown.
    """

    __slots__ = ("configs", "choices", "status", "lasso")

    def __init__(self, configs: list[NdConfig], choices: list[tuple[str, str, str]],
                 status: str, lasso: Optional[Lasso] = None):
        self.configs, self.choices = configs, choices
        self.status, self.lasso = status, lasso


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
                    choices: list[tuple[str, str, str]],
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
    if cj.head + lo < 0:
        return None
    for off in range(lo, hi + 1):
        if cj.symbol_at(cj.head + off) != ck.symbol_at(ck.head + off):
            return None
    if any(pos > ck.head + hi for pos in ck.writes):
        return None
    # Replay the cycle once from ck following the recorded choices.
    cur = ck
    for t in range(j, k):
        want = choices[t]
        legal = dict(_choices(m, cur))
        if want not in legal:
            return None
        expected_read = configs[t].symbol_at(configs[t].head)
        if cur.symbol_at(cur.head) != expected_read:
            return None
        cur = legal[want]
    if cur.state != ck.state or cur.head != ck.head + d:
        return None
    for off in range(lo, hi + 1):
        if cur.symbol_at(cur.head + off) != ck.symbol_at(ck.head + off):
            return None
    return Lasso(j, k - j, d, (lo, hi))


def _path(node) -> tuple[list[NdConfig], list[tuple[str, str, str]]]:
    """The configurations and choices from the root to a run-tree node."""
    nodes = []
    while node is not None:
        nodes.append(node)
        node = node[2]
    nodes.reverse()
    return [n[0] for n in nodes], [n[1] for n in nodes[1:]]


def explore_runs(m: NdTmSpec, w: OmegaWord, fuel: int = 200, width: int = 64,
                 radius: Optional[int] = None) -> list[RunPrefix]:
    """Breadth-first run-tree expansion up to fuel steps and width frontier.

    The tree is one set of nodes with parent links, and each dedup key has
    one owner node, the first to reach it; a run's configurations and
    choices are built from the links only when its branch ends.  Returns
    the maximal explored branches in a canonical order.  Branch ends:
    stuck (no successor), lassoed (certified recurrence on the own
    ancestry), merged (key owned by another branch), failed (recurrence
    seen but not certifiable), cut (bounds).
    """
    if fuel < 1 or width < 1:
        raise MachineError("fuel and width must be >= 1")
    r = radius if radius is not None else _default_radius(m, w)
    if r < 0:
        raise MachineError("radius must be >= 0")
    p, cl = len(w.prefix), len(w.cycle)
    phases = [("abs", i) for i in range(p)] + [("cyc", i) for i in range(cl)]
    # A node is (config, choice, parent, depth, window): the window is the
    # last part of its dedup key, slid from the parent's by one cell.
    start = NdConfig(w, m.initial, 0)
    key = _dedup_key(start, w, r)
    root = (start, None, None, 0, key[2])
    owner = {key: root}
    runs: list[RunPrefix] = []
    frontier = [root]
    depth = 0
    while frontier and depth < fuel:
        depth += 1
        nxt_frontier = []
        for node in frontier:
            succ = _choices(m, node[0])
            if not succ:
                runs.append(RunPrefix(*_path(node), "stuck"))
                continue
            pw = node[4]
            for ch, nc in succ:
                h = nc.head
                f2 = ch[1]
                if r == 0:
                    win = (nc.symbol_at(h),)
                elif ch[2] == "R":
                    win = pw[1:r] + (f2,) + pw[r + 1:] + (nc.symbol_at(h + r),)
                else:
                    win = ((nc.symbol_at(h - r) if h >= r else "<",) + pw[:r]
                           + (f2,) + pw[r + 1:2 * r])
                child = (nc, ch, node, depth, win)
                phase = phases[h] if h < p else phases[p + (h - p) % cl]
                hit = owner.setdefault((nc.state, phase, win), child)
                if hit is child:
                    nxt_frontier.append(child)
                    continue
                # The key's owner is on this branch iff it is the branch's
                # node at the owner's depth.
                anc = node
                while anc[3] > hit[3]:
                    anc = anc[2]
                configs, choices = _path(child)
                if anc is not hit:
                    runs.append(RunPrefix(configs, choices, "merged"))
                    continue
                lasso = _validate_lasso(m, configs, choices, hit[3], depth)
                runs.append(RunPrefix(configs, choices,
                                      "lassoed" if lasso else "failed", lasso))
        for node in nxt_frontier[width:]:
            runs.append(RunPrefix(*_path(node), "cut"))
        frontier = nxt_frontier[:width]
    for node in frontier:
        runs.append(RunPrefix(*_path(node), "cut"))
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


def membership_semidecide(m: NdTmSpec, w: OmegaWord, fuel: int = 200,
                          width: int = 64,
                          radius: Optional[int] = None) -> Membership:
    """Search the run tree for an accepting run.

    accepted as soon as some branch pumps with positive displacement;
    rejected_exhausted only when the whole tree was exhausted and every
    branch ended stuck, merged, or in a certified zero-displacement lasso.
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
        succ = _choices(m, c)
        if not succ:
            break
        c = succ[0][1]
        n += 1
    return {
        "visits": counts,
        "max_position": max(counts) if counts else 0,
        "max_revisit": max(counts.values()) if counts else 0,
        "steps": n,
    }
