"""Finite and rational terms over a first-order signature.

A term is a rooted, ordered graph whose nodes carry either a function
symbol with a fixed arity or a variable name.  Acyclic terms are ordinary
finite terms; cyclic graphs denote the infinite (rational) tree obtained
by unfolding.  Equality throughout is equality of unfoldings, never node
identity.  Terms are immutable once built and safe to share between
concurrent activities.  Each node caches only its canonical id, one per
unfolding; finiteness and groundness are recorded per id, so both are a
table lookup after :func:`canon_key`.  A node gets its id when it is
built; a knot (``rec``, :func:`cyclify`) gets its ids when it is tied.
:func:`cyclify` remembers the root id of each knot it settles, keyed by
the id it was given and the path, so tying the same knot again reads its
ids off the table instead of minimizing the cycle again.

The concrete syntax is::

    term := ident | ident "(" term ("," term)* ")"
          | "rec" UPPERIDENT "." term | UPPERIDENT

where idents declared in the signature are function symbols, undeclared
lowercase-ish idents are variables, and ``rec X . body`` ties the node of
``body`` back to every occurrence of ``X`` inside it.  ``#`` starts a line
comment.
"""

from __future__ import annotations

import re
import threading
from typing import Iterable, Iterator, Optional

__all__ = [
    "Symbol", "Signature", "Term", "TermError", "TermSyntaxError",
    "PositionError", "CUT", "app", "var", "is_var", "is_finite", "is_ground",
    "bisim_equal", "canon_key", "variables", "term_symbols", "subterm_at",
    "replace_at", "truncate_prefix", "cyclify", "parse_term", "print_term",
]

_IDENT_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_']*")
_UPPER_RE = re.compile(r"[A-Z][A-Za-z0-9_']*")


class TermError(Exception):
    """Base class for term construction and access errors."""


class TermSyntaxError(TermError):
    """Parse failure, carrying the offending line and column (1-based)."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        if line:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class PositionError(TermError):
    """The position is not valid in the given term."""


class Symbol:
    """A function symbol: an identifier together with a fixed arity."""

    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int):
        if not _IDENT_RE.fullmatch(name):
            raise TermError(f"bad symbol name {name!r}")
        if arity < 0:
            raise TermError(f"negative arity for symbol {name}")
        self.name, self.arity = name, arity

    def __eq__(self, other):
        return self is other or (other.__class__ is Symbol and
                                 self.name == other.name and self.arity == other.arity)

    def __hash__(self):
        return hash((self.name, self.arity))

    def __repr__(self):
        return f"{self.name}/{self.arity}"


#: Reserved truncation marker; never part of a user signature.
CUT = Symbol("cut", 0)


class Signature:
    """A set of symbols with unique names.

    A signature also keeps the cyclic terms :meth:`unary_cycle` built over
    it, keyed by their name sequence.  A declared symbol never changes,
    so a kept term stays valid as the signature grows.
    """

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._by_name: dict[str, Symbol] = {}
        self._cycles: dict[tuple[str, ...], Term] = {}
        for s in symbols:
            self.declare(s)

    def declare(self, sym: Symbol) -> None:
        if sym.name == CUT.name:
            raise TermError("'cut' is reserved and cannot be declared")
        old = self._by_name.get(sym.name)
        if old is not None and old.arity != sym.arity:
            raise TermError(
                f"symbol {sym.name} redeclared with arity {sym.arity}"
                f" (was {old.arity})")
        self._by_name[sym.name] = sym

    def get(self, name: str) -> Optional[Symbol]:
        return self._by_name.get(name)

    def unary_cycle(self, names: tuple[str, ...]) -> Term:
        """``rec X . f1(f2(...fn(X)))`` for the unary symbols f1..fn named.

        Built once per signature and sequence: a rotation of the sequence
        is another sequence, with its own term.  Threads that miss at once
        each build one; all get the same ids, so keeping either is right.
        """
        t = self._cycles.get(names)
        if t is None:
            t = Term(None, ())  # a placeholder leaf, cut off by cyclify
            for n in reversed(names):
                sym = self._by_name.get(n)
                if sym is None or sym.arity != 1:
                    raise TermError(f"{n!r} is not a unary symbol")
                t = Term(sym, (t,))
            t = self._cycles[names] = cyclify(t, (1,) * len(names))
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def merged(self, other: "Signature") -> "Signature":
        sig = Signature(self)
        for s in other:
            sig.declare(s)
        return sig

    def __repr__(self):
        return "Signature(" + " ".join(repr(s) for s in self) + ")"


class Term:
    """A node of a term graph.

    ``label`` is a Symbol for function applications or a plain string for
    variables.  Do not mutate; use :func:`app`, :func:`var` and the parser
    to build terms.  Compare with :func:`bisim_equal`, not ``==``.
    """

    __slots__ = ("label", "children", "_cid")

    def __init__(self, label, children: tuple):
        # The node gets its id here, unless it is a placeholder or a child
        # has none.  Its key is the table's: (None, name) for a variable,
        # else (symbol name, *child ids); a unary node's is built without
        # the comprehension, so a unary spine costs one tuple per node.
        self.label = label
        self.children = children
        if label.__class__ is str:
            key = (None, label)
        elif label is None:
            self._cid = None
            return
        elif len(children) == 1:
            c = children[0]._cid
            if c is None:
                self._cid = None
                return
            key = (label.name, c)
        else:
            key = (label.name, *[c._cid for c in children])
            if None in key:
                self._cid = None
                return
        cid = _table.get(key)
        if cid is None:
            with _lock:
                cid = _table.get(key)
                if cid is None:
                    cid = len(_keys)
                    _finite_ids.append(all(_finite_ids[c._cid]
                                           for c in children))
                    _ground_ids.append(key[0] is not None and all(
                        _ground_ids[c._cid] for c in children))
                    _keys.append(key)
                    _table[key] = cid
        self._cid = cid

    def _patch(self, label, children: tuple) -> None:
        # Internal: ties a recursive knot (the parser's rec, cyclify).  A
        # placeholder Term(None, ()) has no id, nor has any node built over
        # it, until the knot is tied and settled; a node with an id must
        # not change, or the id it and its ancestors carry would go stale.
        if self._cid is not None:
            raise TermError("cannot patch a term that has a canonical id")
        self.label = label
        self.children = children

    def __repr__(self):
        try:
            return f"<term {print_term(self)}>"
        except Exception:
            return f"<term node {id(self):#x}>"


def app(sym: Symbol, *children: Term) -> Term:
    """Apply a symbol to exactly ``sym.arity`` child terms."""
    if len(children) != sym.arity:
        raise TermError(
            f"{sym.name} expects {sym.arity} arguments, got {len(children)}")
    return Term(sym, children)


def var(name: str) -> Term:
    if not _IDENT_RE.fullmatch(name):
        raise TermError(f"bad variable name {name!r}")
    return Term(name, ())


def is_var(t: Term) -> bool:
    return isinstance(t.label, str)


def _reachable(t: Term) -> list[Term]:
    """All distinct nodes reachable from t, in preorder."""
    seen: set[int] = set()
    out: list[Term] = []
    stack = [t]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        out.append(n)
        stack.extend(reversed(n.children))
    return out


# ---------------------------------------------------------------------------
# Canonical ids: maximal sharing of unfoldings
#
# One hash-cons table maps a node key, (symbol name, *child ids) or
# (None, name) for a variable, to the id of its unfolding; no two ids have
# bisimilar unfoldings.  The ids of a new cycle are consecutive, and the
# first is also keyed by the cycle's rows (a tuple of tuples, never a node
# key), so that a bisimilar cycle built elsewhere finds them.  Finiteness
# and groundness are properties of the unfolding, so they are kept per id.
# The knot memo maps (id of t, path) to the root id of cyclify(t, path):
# that unfolding depends on t's unfolding and the path alone.  It lives
# and grows with the table, so whatever resets the table must clear it.

_lock = threading.Lock()
_table: dict[tuple, int] = {}
_keys: list[tuple] = []        # id -> its node key
_finite_ids = bytearray()      # id -> 1 iff its unfolding is finite
_ground_ids = bytearray()      # id -> 1 iff its unfolding has no variable
_knots: dict[tuple[int, tuple[int, ...]], int] = {}


def _settle_cycle(comp: list[Term]) -> None:
    """Give ids to a cyclic strongly connected component whose children
    outside it already have ids."""
    # Elements: the component's nodes, then the infinite ids reachable
    # from it.  A child reference is an element index, or -1 - id for a
    # finite id (distinct finite ids are distinct unfoldings).
    k = len(comp)
    elem = {id(n): i for i, n in enumerate(comp)}
    names = [n.label.name for n in comp]
    old: list[int] = []
    old_elem: dict[int, int] = {}

    def ref(cid: int) -> int:
        if _finite_ids[cid]:
            return -1 - cid
        e = old_elem.get(cid)
        if e is None:
            e = old_elem[cid] = len(names)
            names.append(_keys[cid][0])
            old.append(cid)
        return e

    with _lock:
        refs = [[elem[id(c)] if id(c) in elem else ref(c._cid)
                 for c in n.children] for n in comp]
        for cid in old:  # grows while it is read
            refs.append([ref(c) for c in _keys[cid][1:]])
        # Partition refinement to the coarsest bisimulation.  Classes are
        # numbered by the rank of their signature, so the numbering does
        # not depend on where the cycle was entered or how it was built.
        sigs = [(nm, len(r)) for nm, r in zip(names, refs)]
        while True:
            rank = {sg: i for i, sg in enumerate(sorted(set(sigs)))}
            cls = [rank[sg] for sg in sigs]
            sigs = [(c, *[cls[x] if x >= 0 else x for x in r])
                    for c, r in zip(cls, refs)]
            if len(set(sigs)) == len(rank):
                break
        known = {cls[k + j]: cid for j, cid in enumerate(old)}
        # A component is strongly connected, so either every class meets a
        # known id or none does.  In the latter case its rows (one per
        # class in class order: the name, then each child's row number or
        # -1 - id) find the ids of a bisimilar cycle built elsewhere, or
        # new ones are minted.
        if cls[0] not in known:
            rep = {cls[i]: i for i in range(k)}
            row_of = {c: j for j, c in enumerate(sorted(rep))}
            rows = tuple((names[rep[c]], *[
                -1 - old[x - k] if x >= k else row_of[cls[x]] if x >= 0 else x
                for x in refs[rep[c]]]) for c in row_of)
            base = _table.get(rows)
            if base is None:
                # Each node of the cycle reaches all the others, so all
                # are ground iff every id they reference outside it is.
                ground = all(_ground_ids[-1 - x] for row in rows
                             for x in row[1:] if x < 0)
                base = len(_keys)
                for j, row in enumerate(rows):
                    key = (row[0], *[base + x if x >= 0 else -1 - x
                                     for x in row[1:]])
                    _keys.append(key)
                    _finite_ids.append(0)
                    _ground_ids.append(ground)
                    _table[key] = base + j
                _table[rows] = base
            known.update((c, base + j) for c, j in row_of.items())
    for n, c in zip(comp, cls):
        n._cid = known[c]


def _settle_from(t: Term) -> None:
    """Tarjan over the nodes without an id reachable from t; each
    component gets its ids as it pops (reverse topological order)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    scc_stack: list[Term] = []
    work: list[tuple[Term, int]] = [(t, 0)]
    while work:
        node, ci = work[-1]
        nid = id(node)
        if ci == 0:
            index[nid] = low[nid] = len(index)
            scc_stack.append(node)
            onstack.add(nid)
        if ci < len(node.children):
            work[-1] = (node, ci + 1)
            child = node.children[ci]
            cid = id(child)
            if child._cid is None and cid not in index:
                work.append((child, 0))
            elif cid in onstack:
                low[nid] = min(low[nid], index[cid])
        else:
            work.pop()
            if work:
                pid = id(work[-1][0])
                low[pid] = min(low[pid], low[nid])
            if low[nid] == index[nid]:
                comp = []
                while not comp or comp[-1] is not node:
                    comp.append(scc_stack.pop())
                    onstack.discard(id(comp[-1]))
                if len(comp) == 1 and node not in node.children:
                    # An acyclic patched node: its children have ids now,
                    # so the constructor keys it as it keys any node.
                    Term.__init__(node, node.label, node.children)
                else:
                    _settle_cycle(comp)


def canon_key(t: Term) -> int:
    """The canonical id of t: two terms get equal ids iff they are
    bisimilar.

    Every node gets its id when it is built, so this is a slot read,
    except on a node built while a knot was open; Tarjan then settles
    what it reaches, minimizing each cyclic component.
    """
    if t._cid is None:
        _settle_from(t)
    return t._cid


CUT_TERM = app(CUT)


def is_finite(t: Term) -> bool:
    """True iff the reachable graph of t is acyclic."""
    return bool(_finite_ids[canon_key(t)])


def is_ground(t: Term) -> bool:
    """True iff no variable node is reachable from t."""
    return bool(_ground_ids[canon_key(t)])


def bisim_equal(a: Term, b: Term) -> bool:
    """True iff the infinite unfoldings of a and b are the same tree.

    A pairwise walk that never reads canonical ids, so it stays an
    independent check of them."""
    seen: set[tuple[int, int]] = set()
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        k = (id(x), id(y))
        if k in seen:
            continue
        seen.add(k)
        if x.label is not y.label and x.label != y.label:
            return False
        todo.extend(zip(x.children, y.children))
    return True


def variables(t: Term) -> set[str]:
    return {n.label for n in _reachable(t) if is_var(n)}


def term_symbols(t: Term) -> set[Symbol]:
    return {n.label for n in _reachable(t) if not is_var(n)}


def _path(t: Term, pos: tuple[int, ...]) -> list[Term]:
    """The nodes met following 1-based child indices from t: t first, the
    subterm at pos last.  A variable has no children, so no index fits."""
    spine = [t]
    for i in pos:
        kids = spine[-1].children
        if not 0 < i <= len(kids):
            raise PositionError(
                f"invalid position {list(pos)} at depth {len(spine) - 1}")
        spine.append(kids[i - 1])
    return spine


def subterm_at(t: Term, pos: tuple[int, ...]) -> Term:
    """The subterm reached by following 1-based child indices."""
    return _path(t, pos)[-1]


def _rebuild(spine: list[Term], pos: tuple[int, ...], s: Term) -> Term:
    """s in place of spine[-1], each node above it on _path's spine for
    pos rebuilt fresh."""
    new = s
    for depth in range(len(pos) - 1, -1, -1):
        parent = spine[depth]
        kids = parent.children
        if len(kids) == 1:
            new = Term(parent.label, (new,))
        else:
            i = pos[depth]
            new = Term(parent.label, kids[:i - 1] + (new,) + kids[i:])
    return new


def replace_at(t: Term, pos: tuple[int, ...], s: Term) -> Term:
    """t with the subtree at pos replaced by s.

    Nodes along the path are rebuilt fresh, so a context that runs through
    a cycle entry is unrolled just far enough to make pos addressable.
    The input term is unchanged.
    """
    return _rebuild(_path(t, pos), pos, s)


def truncate_prefix(t: Term, d: int) -> Term:
    """Finite approximation of t: nodes at depth d become the `cut` constant."""
    if d < 0:
        raise TermError("negative truncation depth")
    # Post-order on an explicit stack, so that depth costs no recursion:
    # an entry (n, k, True) builds n's copy from the last len(n.children)
    # results once every child's copy is built, children left to right,
    # which fixes the order in which new ids are minted.
    memo: dict[tuple[int, int], Term] = {}
    done: list[Term] = []
    work: list[tuple[Term, int, bool]] = [(t, d, False)]
    while work:
        n, k, ready = work.pop()
        if ready:
            kids = tuple(done[-len(n.children):])
            del done[-len(n.children):]
            out = memo[(id(n), k)] = Term(n.label, kids)
        elif k == 0:
            out = CUT_TERM
        elif not n.children:
            out = n
        else:
            out = memo.get((id(n), k))
            if out is None:
                work.append((n, k, True))
                work.extend((c, k - 1, False) for c in reversed(n.children))
                continue
        done.append(out)
    return done[0]


def cyclify(t: Term, path: tuple[int, ...]) -> Term:
    """A rational term equal to t with the subterm at `path` tied back to
    the root, i.e. the infinite unfolding C[C[C[...]]] of the context C
    obtained by punching a hole into t at `path`.

    The knot's nodes are always new, built from t's own, so the result
    prints as t's graph.  When t has an id and the same knot was tied
    before, from any t with that id, its ids are read off the table: the
    root's from the knot memo, each later node's from its parent's key.
    Otherwise the knot is settled (Tarjan and cycle minimization)."""
    if not path:
        raise TermError("cannot cyclify at the empty path")
    spine = _path(t, path)[:-1]
    fresh = [Term(None, ()) for _ in spine]
    for j, node in enumerate(spine):
        kids = list(node.children)
        kids[path[j] - 1] = fresh[j + 1] if j + 1 < len(fresh) else fresh[0]
        fresh[j]._patch(node.label, tuple(kids))
    memo = (t._cid, path)
    cid = _knots.get(memo)
    if cid is None:
        cid = canon_key(fresh[0])
        if memo[0] is not None:  # t had an id before the knot settled
            with _lock:
                _knots[memo] = cid
    else:
        for n, i in zip(fresh, path):
            n._cid = cid
            cid = _keys[cid][i]
    return fresh[0]


# ---------------------------------------------------------------------------
# Parsing and printing


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<ident>[A-Za-z0-9_][A-Za-z0-9_']*)"
    r"|(?P<punct>[(),.])")


def _tokenize(text: str, line: int, col: int
              ) -> list[tuple[str, str, int, int]]:
    """The tokens of text with their line and column, counted from the
    line and column text starts at."""
    toks, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise TermSyntaxError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            toks.append((kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        i = m.end()
    return toks


def _parse(text: str, sig: Signature, ground: bool,
           at: tuple[int, int] = (1, 1)) -> Term:
    """The one reader of the grammar, on its own stack of open applications
    and binders, so that depth costs no recursion.  Errors give the line
    and column in a file where text starts at ``at``."""
    toks, i = _tokenize(text, *at), 0
    end = toks[-1][2:] if toks else at  # where "unexpected end" points

    def take():
        nonlocal i
        if i == len(toks):
            raise TermSyntaxError("unexpected end of input", *end)
        i += 1
        return toks[i - 1]

    # An open application is (symbol, args, line, col); an open binder is
    # (line, col), its name and hole the innermost scope.  Only an open
    # binder's hole has no label.
    frames: list = []
    scopes: list[tuple[str, Term]] = []   # the open binders, innermost last
    while True:
        kind, tok, line, col = take()
        if kind != "ident":
            raise TermSyntaxError(f"expected a term, found {tok!r}", line, col)
        if tok == "rec":
            kind, name, l2, c2 = take()
            if kind != "ident" or not _UPPER_RE.fullmatch(name):
                raise TermSyntaxError("'rec' binder must be an uppercase "
                                      f"identifier, found {name!r}", l2, c2)
            if name in sig:
                raise TermSyntaxError(f"'rec' binder {name!r} collides with "
                                      "a declared symbol", l2, c2)
            _, dot, l2, c2 = take()
            if dot != ".":
                raise TermSyntaxError(f"expected '.', found {dot!r}", l2, c2)
            scopes.append((name, Term(None, ())))
            frames.append((line, col))
            continue
        if i < len(toks) and toks[i][1] == "(":
            i += 1
            sym = sig.get(tok)
            if sym is None:
                raise TermSyntaxError(f"unknown symbol {tok!r}", line, col)
            frames.append((sym, [], line, col))
            continue
        t = next((h for name, h in reversed(scopes) if name == tok), None)
        if t is None:
            sym = sig.get(tok)
            if sym is not None:
                if sym.arity:
                    raise TermSyntaxError(
                        f"{tok} expects {sym.arity} arguments, got 0", line, col)
                t = Term(sym, ())
            elif _UPPER_RE.fullmatch(tok):
                raise TermSyntaxError(
                    f"unbound recursion variable {tok!r}", line, col)
            elif ground:
                raise TermSyntaxError(
                    f"variable {tok!r} not allowed in a ground term", line, col)
            else:
                t = var(tok)
        # t is whole: close what it completes, until an application wants
        # another argument or nothing is open.  A leaf is built when read,
        # an application at its ")", a knot's ids when the outermost is tied.
        while frames:
            if len(frames[-1]) == 2:
                l2, c2 = frames.pop()
                name, hole = scopes.pop()
                if t.label is None:
                    raise TermSyntaxError(f"unguarded recursion for {name!r}", l2, c2)
                hole._patch(t.label, t.children)
                if not scopes:
                    canon_key(hole)
                t = hole
                continue
            sym, args, l2, c2 = frames[-1]
            args.append(t)
            _, sep, l3, c3 = take()
            if sep == ",":
                break
            if sep != ")":
                raise TermSyntaxError(f"expected ',' or ')', found {sep!r}", l3, c3)
            frames.pop()
            if len(args) != sym.arity:
                raise TermSyntaxError(f"{sym.name} expects {sym.arity} "
                                      f"arguments, got {len(args)}", l2, c2)
            t = Term(sym, tuple(args))
        else:
            if i < len(toks):
                _, tok, line, col = toks[i]
                raise TermSyntaxError(f"trailing input {tok!r}", line, col)
            return t


def parse_term(text: str, sig: Signature, ground: bool = False) -> Term:
    """Parse a term; symbols must be declared in sig.

    With ``ground=True`` undeclared identifiers are rejected instead of
    being read as variables.
    """
    return _parse(text, sig, ground)


def _binder_nodes(t: Term) -> set[int]:
    """Nodes revisited while still on the printing stack (cycle entries)."""
    marked: set[int] = set()
    onstack: set[int] = set()
    done: set[int] = set()
    work: list[tuple[Term, int]] = [(t, 0)]
    while work:
        node, ci = work[-1]
        nid = id(node)
        if ci == 0:
            if nid in onstack:
                marked.add(nid)
                work.pop()
                continue
            if nid in done:
                work.pop()
                continue
            onstack.add(nid)
        if ci < len(node.children):
            work[-1] = (node, ci + 1)
            work.append((node.children[ci], 0))
        else:
            work.pop()
            onstack.discard(nid)
            done.add(nid)
    return marked


def print_term(t: Term) -> str:
    """Render a term in the concrete grammar; cycles print as `rec` blocks.

    Reparsing the output yields a term bisimilar to the input.
    """
    binders = _binder_nodes(t)
    taken = {n.label if isinstance(n.label, str) else n.label.name
             for n in _reachable(t)}
    pool = []
    for base in ("X", "Y", "Z", "U", "V", "W"):
        if base not in taken:
            pool.append(base)
    i = 1
    while len(pool) < len(binders) + 1:
        cand = f"X{i}"
        if cand not in taken:
            pool.append(cand)
        i += 1
    names: dict[int, str] = {}
    used = 0

    def go(n: Term, active: dict[int, str]) -> str:
        nonlocal used
        nid = id(n)
        if nid in active:
            return active[nid]
        if isinstance(n.label, str):
            return n.label
        if nid in binders:
            nm = names.get(nid)
            if nm is None:
                nm = pool[used]
                used += 1
                names[nid] = nm
            inner = dict(active)
            inner[nid] = nm
            body = _apply_str(n, inner)
            return f"rec {nm} . {body}"
        return _apply_str(n, active)

    def _apply_str(n: Term, active) -> str:
        if not n.children:
            return n.label.name
        return n.label.name + "(" + ", ".join(go(c, active) for c in n.children) + ")"

    return go(t, {})
