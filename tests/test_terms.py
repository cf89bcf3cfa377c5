import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from irw import terms
from irw.terms import (
    CUT, CUT_TERM, PositionError, Signature, Symbol, Term, TermError,
    TermSyntaxError,
    app, bisim_equal, canon_key, cyclify, is_finite, is_ground, is_var, var,
    parse_term, print_term, replace_at, subterm_at,
    truncate_prefix,
)

SIG = Signature([
    Symbol("a", 1), Symbol("b", 1), Symbol("peb", 1), Symbol("T", 0),
    Symbol("run", 3), Symbol("pickn", 0), Symbol("ok", 1), Symbol("c", 1),
    Symbol("S", 1), Symbol("0", 1), Symbol("end", 0), Symbol("q0", 2),
    Symbol("f", 2), Symbol("g", 1),
])


def P(s, ground=False):
    return parse_term(s, SIG, ground=ground)


# --- partition refinement oracle, independent of bisim_equal -------------

def _refinement_equal(x, y):
    nodes = []
    seen = set()
    stack = [x, y]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        nodes.append(n)
        stack.extend(n.children)
    lab = lambda n: n.label if isinstance(n.label, str) else (n.label.name, n.label.arity)
    cls = {}
    blocks = {}
    for n in nodes:
        blocks.setdefault(lab(n), len(blocks))
    for n in nodes:
        cls[id(n)] = blocks[lab(n)]
    while True:
        sigs = {}
        nxt = {}
        for n in nodes:
            s = (cls[id(n)],) + tuple(cls[id(c)] for c in n.children)
            sigs.setdefault(s, len(sigs))
            nxt[id(n)] = sigs[s]
        if len(sigs) == len(set(cls.values())):
            return nxt[id(x)] == nxt[id(y)]
        cls = nxt


def _unfold_equal(x, y, depth=12):
    return canon_key(truncate_prefix(x, depth)) == canon_key(truncate_prefix(y, depth))


class TestSymbol:
    @pytest.mark.parametrize("name, arity", [("a b", 1), ("f", -1)])
    def test_bad_symbol_refused(self, name, arity):
        with pytest.raises(TermError):
            Symbol(name, arity)

    def test_equal_by_value(self):
        # Equal symbols hash as their (name, arity) pair, so sets and dicts
        # of symbols keep their order.
        f = Symbol("f", 1)
        assert f == Symbol("f", 1) and hash(f) == hash(Symbol("f", 1)) == hash(("f", 1))
        assert f != Symbol("f", 2) and f != Symbol("g", 1) and f != "f"
        assert repr(Symbol("f", 2)) == "f/2"


class TestParse:
    def test_unprintable_node_repr(self):
        # A node the printer cannot print still has a repr.
        assert repr(Term(None, ())).startswith("<term node 0x")

    def test_constant(self):
        t = P("T")
        assert t.label == Symbol("T", 0) and not t.children

    def test_start_term(self):
        t = P("run(T, pickn, pickn)")
        assert t.label.name == "run"
        assert [c.label.name for c in t.children] == ["T", "pickn", "pickn"]

    def test_rec_cycle(self):
        t = P("rec X . peb(X)")
        assert t.label.name == "peb"
        assert t.children[0] is t
        assert not is_finite(t)

    def test_comments_and_whitespace(self):
        t = P("run( T ,  # inline\n pickn, pickn )")
        assert t.label.name == "run"

    def test_unknown_symbol(self):
        with pytest.raises(TermSyntaxError):
            P("nosuch(T)")

    def test_arity_mismatch(self):
        with pytest.raises(TermSyntaxError, match="expects"):
            P("peb(T, T)")
        with pytest.raises(TermSyntaxError, match="expects"):
            P("peb")

    def test_unbound_recursion_variable(self):
        with pytest.raises(TermSyntaxError, match="unbound recursion"):
            P("peb(Q)")

    def test_unguarded_recursion(self):
        with pytest.raises(TermSyntaxError, match="unguarded"):
            P("rec X . X")

    def test_ground_rejects_variables(self):
        P("run(x, y, y)")
        with pytest.raises(TermSyntaxError, match="ground"):
            P("run(x, y, y)", ground=True)

    def test_binder_shadowing_symbol_rejected(self):
        with pytest.raises(TermSyntaxError, match="collides"):
            P("rec T . peb(T)")

    def test_deep(self):
        # The parser keeps its own stack, so depth 10^4 needs no recursion;
        # the ids are those of the same terms built with app and cyclify.
        n, S = 10 ** 4, SIG.get("S")
        built = app(SIG.get("0"), app(SIG.get("end")))
        for _ in range(n):
            built = app(S, built)
        text = "ok(" + "S(" * n + "0(end)" + ")" * n + ")"
        for ground in (False, True):
            t = P(text, ground)
            assert canon_key(t) == canon_key(app(SIG.get("ok"), built))
        spine = app(SIG.get("end"))
        for _ in range(n):
            spine = app(S, spine)
        t = P("rec X . " + "S(" * n + "X" + ")" * n)
        assert canon_key(t) == canon_key(cyclify(spine, (1,) * n))
        assert canon_key(t) == canon_key(P("rec X . S(X)"))

    def test_binder_name_past_the_six_letters(self):
        # The printer's six binder names X, Y, Z, U, V and W are all
        # symbols of the term, so it falls back to X1; the text reads back.
        sig = Signature([Symbol(n, 1) for n in ("X", "Y", "Z", "U", "V", "W")])
        t = parse_term("rec A . X(Y(Z(U(V(W(A))))))", sig)
        text = print_term(t)
        assert text == "rec X1 . X(Y(Z(U(V(W(X1))))))"
        assert bisim_equal(parse_term(text, sig), t)

    def test_binder_names_avoid_the_signature(self):
        # X is declared but absent from the term: only the signature tells
        # the printer that a binder named X would not read back.
        sig = Signature([Symbol("X", 1), Symbol("a", 1)])
        t = parse_term("rec Y . a(Y)", sig)
        assert print_term(t) == "rec X . a(X)"
        text = print_term(t, sig)
        assert text == "rec Y . a(Y)"
        assert bisim_equal(parse_term(text, sig), t)

    def test_position_reported(self):
        err = None
        try:
            P("run(T,\n  nosuch(T), T)")
        except TermSyntaxError as e:
            err = e
        assert err is not None and err.line == 2


class TestBisim:
    def test_one_step_unfold(self):
        assert bisim_equal(P("rec X . b(rec Y. b(Y))"), P("b(rec X . b(X))"))

    def test_roots_differ(self):
        assert not bisim_equal(P("rec X . a(b(X))"), P("rec Y . b(a(Y))"))

    def test_word_image_vs_shifted_cycle(self):
        # a b (b a)^w as a term, against two rational candidates.  The
        # depth-12 unfolding oracle and partition refinement both settle it.
        word_image = P("a(b(rec X . b(a(X))))")
        shifted = P("a(b(b(a(rec X . b(a(X))))))")
        four_cycle = P("rec X . a(b(b(a(X))))")
        assert bisim_equal(word_image, shifted)
        assert _refinement_equal(word_image, shifted)
        assert _unfold_equal(word_image, shifted)
        # a b b a b a b a... differs from a b b a a b b a... at depth 4
        assert not _unfold_equal(word_image, four_cycle)
        assert not bisim_equal(word_image, four_cycle)
        assert not _refinement_equal(word_image, four_cycle)

    def test_equivalence_relation(self):
        ts = [P("rec X . a(X)"), P("a(rec X . a(X))"), P("rec X . a(a(X))"),
              P("rec X . b(a(X))"), P("T")]
        for t in ts:
            assert bisim_equal(t, t)
        for x in ts:
            for y in ts:
                assert bisim_equal(x, y) == bisim_equal(y, x)
                assert bisim_equal(x, y) == _refinement_equal(x, y)
                assert bisim_equal(x, y) == (canon_key(x) == canon_key(y))

    def test_finite_is_structural(self):
        assert bisim_equal(P("ok(S(0(end)))"), P("ok(S(0(end)))"))
        assert not bisim_equal(P("ok(S(0(end)))"), P("ok(0(end))"))


class TestPositions:
    def test_subterm_basic(self):
        assert print_term(subterm_at(P("run(T, pickn, pickn)"), (1,))) == "T"

    def test_subterm_cycle_reentry(self):
        t = P("rec X . peb(X)")
        assert subterm_at(t, (1, 1, 1)) is t
        assert bisim_equal(subterm_at(t, (1, 1, 1)), t)

    def test_subterm_two_sided_config(self):
        t = P("q0(S(end), 0(end))")
        assert print_term(subterm_at(t, (2, 1))) == "end"

    def test_invalid_position(self):
        # The same message from each of the three walkers.
        for text, pos, depth in [
                ("T", (1,), 0),
                ("peb(T)", (2,), 0),
                ("peb(T)", (0,), 0),
                ("f(x, T)", (1, 1), 1),      # a variable on the path
                ("rec X . f(X, x)", (1, 1, 2, 1), 3)]:
            for walk in (lambda t: subterm_at(t, pos),
                         lambda t: replace_at(t, pos, P("T")),
                         lambda t: cyclify(t, pos)):
                with pytest.raises(PositionError) as err:
                    walk(P(text))
                assert str(err.value) == \
                    f"invalid position {list(pos)} at depth {depth}"

    def test_replace_identity_shape(self):
        t = P("peb(T)")
        assert print_term(replace_at(t, (1,), P("T"))) == "peb(T)"

    def test_replace_arg(self):
        t = replace_at(P("run(T, pickn, pickn)"), (2,), P("ok(0(end))"))
        assert print_term(t) == "run(T, ok(0(end)), pickn)"

    def test_replace_unrolls_cycle(self):
        t = replace_at(P("rec X . a(X)"), (1,), P("b(end)"))
        assert canon_key(truncate_prefix(t, 3)) == canon_key(truncate_prefix(P("a(b(end))"), 3))
        assert is_finite(t)

    def test_replace_roundtrip_property(self):
        for s in ["run(T, pickn, pickn)", "rec X . a(b(X))", "q0(S(end), 0(end))"]:
            t = P(s)
            for pos in [(1,), (2,), (1, 1)]:
                try:
                    sub = subterm_at(t, pos)
                except PositionError:
                    continue
                assert bisim_equal(replace_at(t, pos, sub), t)


class TestTruncate:
    def test_cycle(self):
        assert print_term(truncate_prefix(P("rec X . peb(X)"), 2)) == "peb(peb(cut))"

    def test_already_shallow(self):
        assert print_term(truncate_prefix(P("T"), 5)) == "T"

    def test_word_prefix(self):
        assert print_term(truncate_prefix(P("rec X . a(X)"), 3)) == "a(a(a(cut)))"

    def test_truncation_all_depths_iff_bisim(self):
        x, y = P("rec X . a(X)"), P("a(a(rec X . a(X)))")
        for d in range(8):
            assert canon_key(truncate_prefix(x, d)) == canon_key(truncate_prefix(y, d))
        z = P("a(a(a(b(rec X . a(X)))))")
        assert any(canon_key(truncate_prefix(x, d)) != canon_key(truncate_prefix(z, d))
                   for d in range(8))

    def test_cut_reserved(self):
        with pytest.raises(TermError):
            Signature([Symbol("cut", 0)])

    def test_deep(self):
        # The walk keeps its own stack, so depth 10^4 needs no recursion.
        S, n = SIG.get("S"), 10 ** 4
        t = app(SIG.get("0"), P("end"))
        for _ in range(n):
            t = app(S, t)
        t = app(SIG.get("ok"), t)
        whole = truncate_prefix(t, n + 5)
        assert canon_key(whole) == canon_key(t) and bisim_equal(whole, t)
        node, depth = truncate_prefix(t, n), 0
        while node.children:
            node, depth = node.children[0], depth + 1
        assert node.label == CUT and depth == n
        unrolled = CUT_TERM
        for _ in range(n):
            unrolled = app(S, unrolled)
        assert canon_key(truncate_prefix(P("rec X . S(X)"), n)) == \
            canon_key(unrolled)
        pickn = P("ok(" + "S(" * 600 + "0(end)" + ")" * 601)
        assert canon_key(truncate_prefix(pickn, 605)) == canon_key(pickn)


class TestCyclify:
    def test_basic(self):
        t = cyclify(P("a(b(pickn))"), (1, 1))
        assert bisim_equal(t, P("rec X . a(b(X))"))

    def test_empty_path_rejected(self):
        with pytest.raises(TermError):
            cyclify(P("a(pickn)"), ())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_memo_hit_gives_the_settled_ids(self, data):
        # Every knot tied from t, and from bisimilar copies of other
        # shapes, along every path up to length 3: a memo hit must give
        # each spine node the id the first call gave it and the id the
        # parser gives the printed knot, and ids must agree with the
        # bisim_equal walk.  A copy without an id is settled, not looked
        # up, and must not leave a memo entry behind, even when settling
        # the knot gives the copy its id.
        if data.draw(st.booleans()):
            t = data.draw(_term_strategy())
        else:
            rng = data.draw(st.randoms(use_true_random=False))
            t = _random_graph(rng, rng.choice([0.0, 0.2, 0.5]))[0]
        canon_key(t)
        copy = _unrolled(t, 2, True)
        canon_key(copy)
        nodes = []
        for path in _valid_paths(t, 3):
            first = _spine(cyclify(t, path), path)
            assert (t._cid, path) in terms._knots
            knot = cyclify(t, path)
            spines = [first, _spine(knot, path),
                      _spine(cyclify(copy, path), path),
                      _spine(cyclify(_unrolled(t, 2, True), path), path)]
            parsed = _spine(parse_term(print_term(knot), _RSIG), path)
            ids = [n._cid for n in first]
            assert None not in ids
            for spine in spines:
                assert [n._cid for n in spine] == ids
            assert [canon_key(n) for n in parsed] == ids
            nodes += [n for spine in spines for n in spine]
        assert all(cid is not None for cid, _ in terms._knots)
        for i, x in enumerate(nodes):
            for y in nodes[i + 1:]:
                assert (x._cid == y._cid) == bisim_equal(x, y)

    def test_memo_hit_prints_its_own_graph(self):
        t = P("f(g(f(T, rec X . g(X))), T)")
        u = P("f(g(f(T, g(rec Y . g(Y)))), T)")
        assert canon_key(t) == canon_key(u)
        path = (1, 1, 1)
        a = cyclify(t, path)
        b = cyclify(u, path)  # a memo hit, from another graph
        assert print_term(a) == "rec X . f(g(f(X, rec Y . g(Y))), T)"
        assert print_term(b) == "rec X . f(g(f(X, g(rec Y . g(Y)))), T)"
        assert [n._cid for n in _spine(b, path)] == [
            n._cid for n in _spine(a, path)]

    def test_unary_cycle(self):
        # unary_cycle ties a placeholder chain, which has no id to key
        # the memo by.
        sig = Signature([Symbol("ua", 1), Symbol("ub", 1)])
        t = sig.unary_cycle(("ua", "ub"))
        assert print_term(t) == "rec X . ua(ub(X))"
        assert sig.unary_cycle(("ua", "ub")) is t
        want = parse_term("rec X . ua(ub(X))", sig)
        assert [n._cid for n in _spine(t, (1, 1))] == [
            canon_key(n) for n in _spine(want, (1, 1))]
        assert sig.unary_cycle(("ub", "ua"))._cid == t.children[0]._cid
        again = Signature(sig).unary_cycle(("ua", "ub"))
        assert again is not t and again._cid == t._cid
        assert all(cid is not None for cid, _ in terms._knots)


def _valid_paths(t, upto):
    """Every non-empty position of t of length at most upto."""
    out, todo = [], [((), t)]
    while todo:
        path, n = todo.pop()
        if path:
            out.append(path)
        if len(path) < upto:
            todo += [(path + (i,), c) for i, c in enumerate(n.children, 1)]
    return out


def _spine(t, path):
    """The nodes met following path from t, the subterm at path left out."""
    return [subterm_at(t, path[:j]) for j in range(len(path))]


# --- randomized properties -------------------------------------------------

_SYMS = [Symbol("f", 2), Symbol("g", 1), Symbol("e", 0), Symbol("h", 0)]
_RSIG = Signature(_SYMS)


def _term_strategy():
    leaves = st.sampled_from([app(_SYMS[2]), app(_SYMS[3])])

    def extend(children):
        return st.one_of(
            st.tuples(children).map(lambda t: app(_SYMS[1], t[0])),
            st.tuples(children, children).map(lambda t: app(_SYMS[0], *t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _random_rational(rng: random.Random) -> Term:
    n = rng.randint(1, 6)
    labels = [rng.choice(_SYMS) for _ in range(n)]
    holes = [Term(None, ()) for _ in range(n)]
    for i, lb in enumerate(labels):
        kids = tuple(holes[rng.randrange(n)] for _ in range(lb.arity))
        holes[i]._patch(lb, kids)
    return holes[0]


@settings(max_examples=60, deadline=None)
@given(_term_strategy())
def test_finite_roundtrip(t):
    assert bisim_equal(parse_term(print_term(t), _RSIG), t)
    assert is_finite(t) and is_ground(t)


@settings(max_examples=60, deadline=None)
@given(_term_strategy(), _term_strategy())
def test_finite_bisim_is_structural(x, y):
    assert bisim_equal(x, y) == (print_term(x) == print_term(y))
    assert bisim_equal(x, y) == _refinement_equal(x, y)


def test_rational_roundtrip_and_keys():
    rng = random.Random(11)
    for _ in range(120):
        t = _random_rational(rng)
        back = parse_term(print_term(t), _RSIG)
        assert bisim_equal(back, t)
        assert canon_key(back) == canon_key(t)
        u = _random_rational(rng)
        assert bisim_equal(t, u) == (canon_key(t) == canon_key(u))
        assert bisim_equal(t, u) == _refinement_equal(t, u)
        d = rng.randint(0, 6)
        if bisim_equal(t, u):
            assert canon_key(truncate_prefix(t, d)) == canon_key(truncate_prefix(u, d))


def test_replace_subterm_identity_rational():
    rng = random.Random(5)
    for _ in range(80):
        t = _random_rational(rng)
        pos = ()
        node = t
        for _ in range(rng.randint(0, 4)):
            if is_var(node) or not node.children:
                break
            i = rng.randint(1, len(node.children))
            pos = pos + (i,)
            node = node.children[i - 1]
        assert bisim_equal(replace_at(t, pos, subterm_at(t, pos)), t)


# --- is_finite against a brute-force path oracle --------------------------

def _oracle_finite(t):
    """A term is finite iff no node repeats on any path from its root."""
    def walk(n, path):
        if id(n) in path:
            return False
        path.add(id(n))
        ok = all(walk(c, path) for c in n.children)
        path.discard(id(n))
        return ok
    return walk(t, set())


def _random_graph(rng: random.Random, back: float) -> list[Term]:
    """Nodes of a random term graph; node 0 is the root.  Forward edges
    give shared acyclic subterms, edges to an earlier node or to itself
    (taken with probability `back`) give cycles."""
    n = rng.randint(1, 10)
    holes = [Term(None, ()) for _ in range(n)]
    for i, h in enumerate(holes):
        sym = rng.choice(_SYMS)
        kids = tuple(
            holes[rng.randrange(i + 1, n)]
            if i + 1 < n and rng.random() >= back
            else holes[rng.randrange(i + 1)]
            for _ in range(sym.arity))
        h._patch(sym, kids)
    return holes


def test_is_finite_matches_path_oracle():
    rng = random.Random(2718)
    seen = set()
    for _ in range(2000):
        nodes = _random_graph(rng, rng.choice([0.0, 0.1, 0.3]))
        # Warm the caches of random subterms first, so the root query has
        # to trust flags cached on its descendants.
        for m in rng.sample(nodes, rng.randint(0, len(nodes))):
            is_finite(m)
        root = nodes[0]
        assert is_finite(root) == _oracle_finite(root)
        seen.add(is_finite(root))
        reach, stack = set(), [root]
        while stack:
            m = stack.pop()
            if id(m) not in reach:
                reach.add(id(m))
                stack.extend(m.children)
        for m in nodes:
            if id(m) in reach:
                assert m._cid is not None
            if m._cid is not None:
                assert is_finite(m) == _oracle_finite(m)
    assert seen == {True, False}


@pytest.mark.parametrize("cyclic", [True, False])
def test_is_finite_deep_unary_spine(cyclic):
    # The shape phi builds: a long unary prefix over a cycle or an end.
    g, e = _SYMS[1], _SYMS[2]
    if cyclic:
        bottom = Term(None, ())
        bottom._patch(g, (bottom,))
    else:
        bottom = app(e)
    spine = [bottom]
    for _ in range(10 ** 4):
        spine.append(app(g, spine[-1]))
    assert is_finite(spine[-1]) is not cyclic
    assert all(is_finite(n) is not cyclic for n in spine)


# --- canonical ids against the bisim_equal walk ----------------------------

def _unrolled(t, k, wrap):
    """A copy of t's graph with node v split into (v, 0..k-1); a child of
    (v, i) is (c, i + 1), wrapping to 0 or staying at k - 1.  Its
    unfolding is t's, with cycles up to k times as long or a prefix
    unrolled k times."""
    nodes, stack, seen = [], [t], set()
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            nodes.append(n)
            stack.extend(n.children)
    copy = {(id(n), i): Term(None, ()) for n in nodes for i in range(k)}
    for n in nodes:
        for i in range(k):
            j = (i + 1) % k if wrap else min(i + 1, k - 1)
            copy[id(n), i]._patch(
                n.label, tuple(copy[id(c), j] for c in n.children))
    return copy[id(t), 0]


def test_canon_key_matches_bisim_walk():
    rng = random.Random(1618)
    f = _SYMS[0]
    for _ in range(150):
        pool = []
        for _ in range(4):
            nodes = _random_graph(rng, rng.choice([0.0, 0.2, 0.5]))
            t = nodes[0]
            pool += [t, _unrolled(t, rng.randint(2, 3), True),
                     _unrolled(t, rng.randint(2, 3), False),
                     parse_term(print_term(t), _RSIG), rng.choice(nodes)]
        for _ in range(4):
            x, y = rng.sample(pool, 2)
            knot = Term(None, ())
            over = app(f, x, knot)  # no id while the knot is open
            assert over._cid is None
            knot._patch(f, (knot, y) if rng.random() < 0.5 else (y, knot))
            pool += [app(f, x, y), knot, over]
        # Intern in a random order, some subterms first, into a table that
        # already holds the classes of earlier rounds and earlier tests.
        rng.shuffle(pool)
        for x in pool:
            assert isinstance(canon_key(x), int)
        # A node over settled children is born with its id.
        pool += [app(f, *rng.sample(pool, 2)) for _ in range(4)]
        assert all(x._cid is not None for x in pool[-4:])
        for i, x in enumerate(pool):
            for y in pool[i:]:
                assert (canon_key(x) == canon_key(y)) == bisim_equal(x, y)


def test_canon_key_named_cases():
    sig = Signature([Symbol("kf", 2), Symbol("kg", 2), Symbol("ku", 1),
                     Symbol("kv", 1), Symbol("a", 0)])
    Q = lambda s: parse_term(s, sig)
    # x = f(x, e) with e = rec E . f(E, E) is e; interned before and after e.
    for f in ("kf", "kg"):
        e_text = f"rec E . {f}(E, E)"
        x = Q(f"rec X . {f}(X, {e_text})")
        if f == "kf":
            assert canon_key(x) == canon_key(Q(e_text))
        else:
            assert canon_key(Q(e_text)) == canon_key(x)
        assert not is_finite(x)
    # One key for a cycle, a longer cycle and an unrolled prefix, in either
    # order of first interning.
    for u, texts in (("ku", ("rec Y . ku(ku(Y))", "rec X . ku(X)",
                             "ku(ku(rec X . ku(X)))")),
                     ("kv", ("kv(kv(rec X . kv(X)))", "rec Y . kv(kv(Y))",
                             "rec X . kv(X)"))):
        keys = {canon_key(Q(s)) for s in texts}
        assert len(keys) == 1
        assert canon_key(Q(f"{u}(a)")) not in keys
    # A variable a and a constant a are different terms.
    assert canon_key(var("a")) != canon_key(Q("a"))
    assert canon_key(Q("ku(a)")) != canon_key(parse_term("ku(a)", Signature(
        [Symbol("ku", 1)])))
    assert is_finite(var("a")) and is_finite(Q("ku(a)"))


# --- ids at birth ----------------------------------------------------------

def _all_settled(t):
    from irw.terms import _reachable
    return all(n._cid is not None for n in _reachable(t))


class TestIdsAtBirth:
    def test_built_nodes_carry_ids(self):
        from irw.encode import phi
        from irw.omega import parse_word
        from irw.rewrite import instantiate
        a, T = SIG.get("a"), P("T")
        built = [
            app(a, T), var("x"), P("f(a(T), x)"),
            P("q0(rec X . a(X), rec Y . f(Y, rec Z . g(Y)))"),
            replace_at(P("f(a(T), T)"), (1, 1), P("b(T)")),
            replace_at(P("rec X . a(b(X))"), (1, 1, 1), T),
            instantiate(P("f(x, a(x))"), {"x": P("b(T)")}),
            truncate_prefix(P("rec X . a(X)"), 3),
            cyclify(P("a(b(pickn))"), (1, 1)),
            phi(parse_word("ab(ba)^w"), SIG),
        ]
        for t in built:
            assert _all_settled(t), print_term(t)

    def test_patch_of_a_settled_node_refused(self):
        for t in (app(SIG.get("a"), P("T")), P("rec X . a(X)"), var("x")):
            key = t._cid
            with pytest.raises(TermError):
                t._patch(SIG.get("g"), (t,))
            assert t._cid == key

    @pytest.mark.parametrize("word, rec_text", [
        ("(a)^w", "rec X . a(X)"),
        ("ab(ba)^w", "a(b(rec X . b(a(X))))"),
        ("b_(ab)^w", "b(_(rec X . a(b(X))))"),
        ("(abab)^w", "rec X . a(b(X))"),
        ("aab(ab)^w", "a(rec X . a(b(X)))"),
    ])
    def test_phi_id_is_its_rec_form_id(self, word, rec_text):
        from irw.encode import phi
        from irw.omega import parse_word
        sig = Signature([Symbol(s, 1) for s in "ab_"])
        t = phi(parse_word(word), sig)
        assert t._cid is not None
        assert t._cid == parse_term(rec_text, sig)._cid
        assert bisim_equal(t, parse_term(rec_text, sig))

    def test_mint_shared_between_threads(self):
        # Four threads build the same fresh variable, unary and binary keys
        # at once, with thread switches forced as often as the interpreter
        # allows.  Each key must be minted once, every thread's node must
        # get its id, and the per-id tables must keep step.
        f, g = _SYMS[0], _SYMS[1]
        base = len(terms._keys)
        names = [f"race{base}_{k}" for k in range(2000)]
        together = threading.Barrier(4, timeout=60)
        got = [[] for _ in range(4)]
        errors = []

        def worker(me):
            try:
                for name in names:
                    together.wait()
                    v = var(name)
                    u = Term(g, (v,))
                    got[me].append((v, u, Term(f, (v, u))))
            except Exception as e:
                errors.append(repr(e))
                together.abort()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(me,))
                       for me in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        ids = [[tuple(n._cid for n in nodes) for nodes in rows] for rows in got]
        assert ids[1:] == ids[:1] * 3
        assert len(terms._keys) - base == 3 * len(names)
        assert len(terms._keys) == len(terms._finite_ids) == \
            len(terms._ground_ids)
        for nodes in got[0]:
            for n in nodes:
                assert terms._table[terms._keys[n._cid]] == n._cid


# --- is_ground against a fresh walk ---------------------------------------

def test_is_ground_matches_fresh_walk():
    from irw.terms import _reachable
    rng = random.Random(4242)
    f = _SYMS[0]
    seen = set()
    for _ in range(400):
        pool = []
        for _ in range(3):
            nodes = _random_graph(rng, rng.choice([0.0, 0.2, 0.5]))
            # Turn some leaves, or whole subgraphs' entries, into variables.
            if rng.random() < 0.5:
                for h in rng.sample(nodes, rng.randint(1, len(nodes))):
                    if not h.children or rng.random() < 0.2:
                        h._patch(rng.choice("xyz"), ())
            pool += nodes
        # New nodes over old ones, as a rewrite step builds a spine over
        # subterms whose flags may already be cached.
        for _ in range(6):
            x, y = rng.choice(pool), rng.choice(pool)
            knot = Term(None, ())
            knot._patch(f, (knot, y) if rng.random() < 0.5 else (y, x))
            pool += [app(f, x, y), knot]
        rng.shuffle(pool)
        for q in pool:
            want = not any(is_var(n) for n in _reachable(q))
            assert is_ground(q) == want
            seen.add(want)
        for q in pool:
            assert is_ground(q) == (not any(is_var(n) for n in _reachable(q)))
    assert seen == {True, False}

    # A cycle whose only variable lies in a cyclic id settled before it, so
    # the cycle's new ids read groundness off the id they reference; then
    # bisimilar copies that find those ids.  Symbols of their own keep the
    # ids new to the table.
    sig = Signature([Symbol("gk", 2), Symbol("gu", 1), Symbol("gc", 0)])
    gk, gu = sig.get("gk"), sig.get("gu")
    for leaf in ("x", "gc"):
        inner = parse_term(f"rec Y . gk(Y, {leaf})", sig)
        want = leaf == "gc"
        assert is_ground(inner) == want
        keys = set()
        for entry in (0, 1):
            knot = Term(None, ())
            knot._patch(gk, (app(gu, knot), inner))
            cycle = [knot, knot.children[0]]
            for q in cycle[entry:] + cycle[:entry]:
                assert is_ground(q) == want
                keys.add(canon_key(q))
        copy = parse_term(f"gu(rec X . gk(gu(X), rec Y . gk(Y, {leaf})))", sig)
        for q in _reachable(copy):
            assert is_ground(q) == (not any(is_var(n) for n in _reachable(q)))
        assert canon_key(copy) in keys and len(keys) == 2
