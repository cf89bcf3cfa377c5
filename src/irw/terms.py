"""Finite and rational terms over a first-order signature.

A term is a rooted, ordered graph whose nodes carry either a function
symbol with a fixed arity or a variable name.  Acyclic terms are ordinary
finite terms; cyclic graphs denote the infinite (rational) tree obtained
by unfolding.  Equality throughout is equality of unfoldings, never node
identity.  Terms are immutable once built and safe to share between
concurrent activities.

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Symbol:
    """A function symbol: an identifier together with a fixed arity."""

    name: str
    arity: int

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise TermError(f"bad symbol name {self.name!r}")
        if self.arity < 0:
            raise TermError(f"negative arity for symbol {self.name}")

    def __repr__(self):
        return f"{self.name}/{self.arity}"


#: Reserved truncation marker; never part of a user signature.
CUT = Symbol("cut", 0)


class Signature:
    """A set of symbols with unique names."""

    def __init__(self, symbols: Iterable[Symbol] = ()):
        self._by_name: dict[str, Symbol] = {}
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

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._by_name == other._by_name

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

    __slots__ = ("label", "children", "_finite", "_ground", "_skey", "_ckey")

    def __init__(self, label, children: tuple):
        self.label = label
        self.children = children
        self._finite: Optional[bool] = None
        self._ground: Optional[bool] = None
        self._skey: Optional[str] = None
        self._ckey: Optional[str] = None

    def _patch(self, label, children: tuple) -> None:
        # Internal: used while tying recursive knots (parser, cyclify,
        # phi).  A placeholder must not reach is_finite or any other
        # cached query before its knot is tied: is_finite trusts the
        # flags cached on descendants, so a stale one would be believed.
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
    return Term(sym, tuple(children))


def var(name: str) -> Term:
    if not _IDENT_RE.fullmatch(name):
        raise TermError(f"bad variable name {name!r}")
    return Term(name, ())


def is_var(t: Term) -> bool:
    return isinstance(t.label, str)


CUT_TERM = app(CUT)


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


def is_finite(t: Term) -> bool:
    """True iff the reachable graph of t is acyclic.

    Runs in time linear in the nodes and edges not yet cached, and caches
    ``_finite`` on every node it visits.  It trusts ``_finite`` already
    cached on a descendant and does not enter that descendant again.
    """
    if t._finite is None:
        # Iterative Tarjan SCCs.  Components pop in reverse topological
        # order, so every child outside a component is settled when it
        # pops; a singleton's self-loop child is still None, i.e. falsy.
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        onstack: set[int] = set()
        scc_stack: list[Term] = []
        counter = 0
        work: list[tuple[Term, int]] = [(t, 0)]
        while work:
            node, ci = work[-1]
            nid = id(node)
            if ci == 0:
                index[nid] = low[nid] = counter
                counter += 1
                scc_stack.append(node)
                onstack.add(nid)
            if ci < len(node.children):
                work[-1] = (node, ci + 1)
                child = node.children[ci]
                cid = id(child)
                if child._finite is None and cid not in index:
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
                    while True:
                        m = scc_stack.pop()
                        onstack.discard(id(m))
                        comp.append(m)
                        if m is node:
                            break
                    finite = len(comp) == 1 and all(
                        c._finite for c in node.children)
                    for m in comp:
                        m._finite = finite
    return t._finite


def is_ground(t: Term) -> bool:
    """True iff no variable node is reachable from t."""
    if t._ground is None:
        nodes = _reachable(t)
        if any(is_var(n) for n in nodes):
            t._ground = False
        else:
            for n in nodes:
                n._ground = True
    return t._ground


def _structural_key(t: Term) -> str:
    """Exact serialization for finite terms; cached per node."""
    stack = [t]
    while stack:
        n = stack[-1]
        if n._skey is not None:
            stack.pop()
            continue
        pending = [c for c in n.children if c._skey is None]
        if pending:
            stack.extend(pending)
            continue
        if isinstance(n.label, str):
            n._skey = "$" + n.label
        elif n.children:
            n._skey = n.label.name + "(" + ",".join(c._skey for c in n.children) + ")"
        else:
            n._skey = n.label.name
        stack.pop()
    return t._skey


def _label_token(n: Term) -> str:
    if isinstance(n.label, str):
        return "$" + n.label
    return n.label.name + "/" + str(n.label.arity)


def _spine_key(t: Term) -> Optional[str]:
    """Fast canonical key for rational terms whose nodes are all unary:
    the label sequence is ultimately periodic; normalize to the shortest
    prefix and the primitive cycle."""
    labels: list[str] = []
    seen: dict[int, int] = {}
    node = t
    while True:
        if len(node.children) != 1:
            return None
        nid = id(node)
        if nid in seen:
            cut = seen[nid]
            prefix, cycle = labels[:cut], labels[cut:]
            break
        seen[nid] = len(labels)
        labels.append(_label_token(node))
        node = node.children[0]
    for p in range(1, len(cycle)):
        if len(cycle) % p == 0 and cycle == cycle[:p] * (len(cycle) // p):
            cycle = cycle[:p]
            break
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return "spine:" + ".".join(prefix) + "|" + ".".join(cycle)


def canon_key(t: Term) -> str:
    """A canonical key: two terms get equal keys iff they are bisimilar.

    Finite terms use their structural serialization.  Rational terms are
    minimized by partition refinement and serialized from the root in
    first-visit order with back references; all-unary spines take a
    linear-time shortcut through their ultimately periodic label word.
    """
    if t._ckey is not None:
        return t._ckey
    if is_finite(t):
        t._ckey = _structural_key(t)
        return t._ckey
    sk = _spine_key(t)
    if sk is not None:
        t._ckey = sk
        return sk
    nodes = _reachable(t)
    cls: dict[int, int] = {}
    inits: dict[str, int] = {}
    for n in nodes:
        tok = _label_token(n)
        if tok not in inits:
            inits[tok] = len(inits)
        cls[id(n)] = inits[tok]
    ncls = len(inits)
    while True:
        sigs: dict[tuple, int] = {}
        nxt: dict[int, int] = {}
        for n in nodes:
            sig = (cls[id(n)],) + tuple(cls[id(c)] for c in n.children)
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt[id(n)] = sigs[sig]
        if len(sigs) == ncls:
            cls = nxt
            break
        ncls = len(sigs)
        cls = nxt
    # Serialize minimized graph from the root class.
    rep: dict[int, Term] = {}
    for n in nodes:
        rep.setdefault(cls[id(n)], n)
    seen: dict[int, int] = {}
    out: list[str] = []

    def emit(c: int) -> None:
        stack: list[tuple[int, int]] = [(c, 0)]
        while stack:
            cc, ci = stack.pop()
            if ci == 0:
                if cc in seen:
                    out.append("@" + str(seen[cc]))
                    continue
                seen[cc] = len(seen)
                node = rep[cc]
                out.append(_label_token(node))
                if node.children:
                    out.append("(")
                    stack.append((cc, 1))
                    for ch in reversed(node.children):
                        stack.append((cls[id(ch)], 0))
            else:
                out.append(")")

    emit(cls[id(t)])
    t._ckey = "".join(out)
    return t._ckey


def bisim_equal(a: Term, b: Term) -> bool:
    """True iff the infinite unfoldings of a and b are the same tree."""
    if a is b:
        return True
    if is_finite(a) and is_finite(b):
        return _structural_key(a) == _structural_key(b)
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
        if x.label != y.label:
            return False
        todo.extend(zip(x.children, y.children))
    return True


def variables(t: Term) -> set[str]:
    return {n.label for n in _reachable(t) if is_var(n)}


def term_symbols(t: Term) -> set[Symbol]:
    return {n.label for n in _reachable(t) if not is_var(n)}


def subterm_at(t: Term, pos: tuple[int, ...]) -> Term:
    """The subterm reached by following 1-based child indices."""
    n = t
    for depth, i in enumerate(pos):
        if is_var(n) or not 1 <= i <= len(n.children):
            raise PositionError(f"invalid position {list(pos)} at depth {depth}")
        n = n.children[i - 1]
    return n


def replace_at(t: Term, pos: tuple[int, ...], s: Term) -> Term:
    """t with the subtree at pos replaced by s.

    Nodes along the path are rebuilt fresh, so a context that runs through
    a cycle entry is unrolled just far enough to make pos addressable.
    The input term is unchanged.
    """
    if not pos:
        return s
    spine = [t]
    n = t
    for depth, i in enumerate(pos):
        if is_var(n) or not 1 <= i <= len(n.children):
            raise PositionError(f"invalid position {list(pos)} at depth {depth}")
        n = n.children[i - 1]
        spine.append(n)
    new = s
    for depth in range(len(pos) - 1, -1, -1):
        parent = spine[depth]
        kids = list(parent.children)
        kids[pos[depth] - 1] = new
        new = Term(parent.label, tuple(kids))
    return new


def truncate_prefix(t: Term, d: int) -> Term:
    """Finite approximation of t: nodes at depth d become the `cut` constant."""
    if d < 0:
        raise TermError("negative truncation depth")
    memo: dict[tuple[int, int], Term] = {}

    def build(n: Term, k: int) -> Term:
        if k == 0:
            return CUT_TERM
        key = (id(n), k)
        got = memo.get(key)
        if got is not None:
            return got
        if is_var(n):
            out = n
        elif not n.children:
            out = n
        else:
            out = Term(n.label, tuple(build(c, k - 1) for c in n.children))
        memo[key] = out
        return out

    return build(t, d)


def cyclify(t: Term, path: tuple[int, ...]) -> Term:
    """A rational term equal to t with the subterm at `path` tied back to
    the root, i.e. the infinite unfolding C[C[C[...]]] of the context C
    obtained by punching a hole into t at `path`."""
    if not path:
        raise TermError("cannot cyclify at the empty path")
    spine = []
    n = t
    for depth, i in enumerate(path):
        if is_var(n) or not 1 <= i <= len(n.children):
            raise PositionError(f"invalid position {list(path)} at depth {depth}")
        spine.append(n)
        n = n.children[i - 1]
    fresh = [Term(None, ()) for _ in spine]
    for j, node in enumerate(spine):
        kids = list(node.children)
        kids[path[j] - 1] = fresh[j + 1] if j + 1 < len(fresh) else fresh[0]
        fresh[j]._patch(node.label, tuple(kids))
    return fresh[0]


# ---------------------------------------------------------------------------
# Parsing and printing


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<ident>[A-Za-z0-9_][A-Za-z0-9_']*)"
    r"|(?P<punct>[(),.])")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, col, i = 1, 1, 0
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


class _Parser:
    def __init__(self, text: str, sig: Signature, ground: bool):
        self.toks = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.ground = ground
        self.scopes: list[tuple[str, Term]] = []
        self.pending: set[int] = set()

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else ("", "", 1, 1)
            raise TermSyntaxError("unexpected end of input", last[2], last[3])
        self.pos += 1
        return t

    def expect(self, text: str):
        kind, tok, line, col = self.take()
        if tok != text:
            raise TermSyntaxError(f"expected {text!r}, found {tok!r}", line, col)

    def term(self) -> Term:
        kind, tok, line, col = self.take()
        if kind != "ident":
            raise TermSyntaxError(f"expected a term, found {tok!r}", line, col)
        if tok == "rec":
            return self.rec(line, col)
        nxt = self.peek()
        if nxt is not None and nxt[1] == "(":
            sym = self.sig.get(tok)
            if sym is None:
                raise TermSyntaxError(f"unknown symbol {tok!r}", line, col)
            self.take()
            args = [self.term()]
            while True:
                k2, t2, l2, c2 = self.take()
                if t2 == ")":
                    break
                if t2 != ",":
                    raise TermSyntaxError(f"expected ',' or ')', found {t2!r}", l2, c2)
                args.append(self.term())
            if len(args) != sym.arity:
                raise TermSyntaxError(
                    f"{sym.name} expects {sym.arity} arguments, got {len(args)}",
                    line, col)
            return Term(sym, tuple(args))
        for name, node in reversed(self.scopes):
            if name == tok:
                return node
        sym = self.sig.get(tok)
        if sym is not None:
            if sym.arity != 0:
                raise TermSyntaxError(
                    f"{sym.name} expects {sym.arity} arguments, got 0", line, col)
            return Term(sym, ())
        if _UPPER_RE.fullmatch(tok):
            raise TermSyntaxError(f"unbound recursion variable {tok!r}", line, col)
        if self.ground:
            raise TermSyntaxError(
                f"variable {tok!r} not allowed in a ground term", line, col)
        return var(tok)

    def rec(self, line: int, col: int) -> Term:
        kind, name, l2, c2 = self.take()
        if kind != "ident" or not _UPPER_RE.fullmatch(name):
            raise TermSyntaxError(
                f"'rec' binder must be an uppercase identifier, found {name!r}",
                l2, c2)
        if name in self.sig:
            raise TermSyntaxError(
                f"'rec' binder {name!r} collides with a declared symbol", l2, c2)
        self.expect(".")
        hole = Term(None, ())
        self.pending.add(id(hole))
        self.scopes.append((name, hole))
        body = self.term()
        self.scopes.pop()
        if id(body) in self.pending:
            raise TermSyntaxError(f"unguarded recursion for {name!r}", line, col)
        self.pending.discard(id(hole))
        hole._patch(body.label, body.children)
        return hole


def parse_term(text: str, sig: Signature, ground: bool = False) -> Term:
    """Parse a term; symbols must be declared in sig.

    With ``ground=True`` undeclared identifiers are rejected instead of
    being read as variables.
    """
    p = _Parser(text, sig, ground)
    t = p.term()
    left = p.peek()
    if left is not None:
        raise TermSyntaxError(f"trailing input {left[1]!r}", left[2], left[3])
    return t


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
