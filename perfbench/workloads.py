"""The four benchmark workloads: seeded inputs, the jobs run on them, and
the checks of each job's output.

Every workload is a function ``(M, seed, work, small) -> list[Job]``.  ``M``
holds freshly imported ``irw`` modules; jobs and checks call the program
through ``M.<module>.<function>`` at call time, so the tracer's wrappers are
seen.  ``work`` is a scratch directory for the files the CLI jobs read, and
``small`` selects the tiny sizes the smoke check uses.

A check returns ``None`` when the output is right, or a ``Failure``.  No
check trusts the code path that produced the output: searches are replayed
step by step, closures are revalidated from their certificates, pickn
distances are compared with the analytic 2n+1, fixture verdicts with their
known answers, and random omega verdicts with the same query at radius 40.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

# A job whose failure is a recorded defect of the program names it here.
# Its failure still counts as failed; it does not make the run incorrect.
# The recursive term parser and printer overflow the stack on deep terms.
DEFECT_DEEP_TERM = "deep-term-recursion"
# membership_semidecide counts branches merged on a radius-bounded window
# toward rejected_exhausted, so it can reject a word that is accepted.
DEFECT_OMEGA_MERGE = "unsound-omega-merge"

# A repro of the unsound merge: every run on b(ba)^w moves right forever
# and accepts, yet the default radius answers rejected_exhausted.
BUG_MACHINE = """\
machine bug
kind nondet-one-sided
states q0
initial q0
blank _
alphabet _ a b
delta q0 a -> q0 a R
delta q0 b -> q0 _ R
delta q0 b -> q0 a R
end
"""

OMEGA_WORDS = ("(a)^w", "(b)^w", "(_)^w", "(ab)^w", "(aab)^w", "a(b)^w",
               "b(ba)^w", "ab(ba)^w")


class Failure(NamedTuple):
    what: str
    defect: Optional[str] = None


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[Failure]]
    defect: Optional[str] = None


def _cli(M, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = M.cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


_STEP_RE = re.compile(r"^(?:\d+|w\S*) @(\S+) (\S+)$")


def _printed_steps(text: str) -> list[tuple[tuple[int, ...], str]]:
    """The (position, rule id) of every step line a trace printed."""
    out = []
    for line in text.splitlines():
        m = _STEP_RE.match(line)
        if m:
            path = m.group(1)
            pos = () if path == "root" else tuple(int(p) for p in path.split("."))
            out.append((pos, m.group(2)))
    return out


def _replay_found(M, trs, res_trace, want_final=None) -> Optional[Failure]:
    if not M.rewrite.replay_trace(trs, res_trace):
        return Failure("trace does not replay")
    for ep in res_trace.epochs:
        if ep.closure is not None and not M.rewrite.validate_certificate(ep):
            return Failure("closure certificate does not revalidate")
    if want_final is not None and not M.terms.bisim_equal(res_trace.final, want_final):
        return Failure(f"ends in {M.terms.print_term(res_trace.final)}")
    return None


# ---------------------------------------------------------------------------
# search: bounded normalization and reachability


def _unary_words(symbols, height):
    """All label sequences of the given height over symbols, in order."""
    words = [()]
    for _ in range(height):
        words = [(s,) + w for s in symbols for w in words]
    return words


def _depth3_corpus(M, R, machine, zs):
    """The norm-probe corpus of criterion 6: unary nests of height <= 3
    over the machine's symbols, its states, D1 and D2, on the leaves xi,
    bot and the two fixture tape images; stratified by the number of D
    walkers and whether the leaf is the generator xi."""
    sig = R.sig
    unary = list(machine.alphabet) + list(machine.states) + ["D1", "D2"]
    leaves = [("xi", M.terms.app(sig.get("xi"))), ("bot", M.terms.app(sig.get("bot")))]
    leaves += [(f"z{i}", z) for i, z in enumerate(zs)]
    strata: dict[tuple[int, bool], list] = {}
    for h in range(4):
        for labels in _unary_words(unary, h):
            for leaf_name, leaf in leaves:
                t = leaf
                for s in reversed(labels):
                    t = M.terms.app(sig.get(s), t)
                key = (sum(1 for s in labels if s in ("D1", "D2")), leaf_name == "xi")
                strata.setdefault(key, []).append(t)
    return strata


# How many corpus terms a pass draws from each stratum, keyed by (number
# of D walkers, leaf is xi).  Besides these, every pass runs two of the
# four D-towers of height 2 over xi, from the slow tail (about 0.3 s each
# against a corpus median of 0.3 ms).  The other terms with two or three
# walkers over xi are left out: their cost ranges from 0.1 ms to 5 s, so a
# seeded draw among them would move the pass time by more than the noise,
# and one 5 s tower would leave room for only two passes in a run.
_SEARCH_DRAW = {(1, True): 4, (0, True): 4,
                (3, False): 1, (2, False): 4, (1, False): 8, (0, False): 4}
_SEARCH_DRAW_SMALL = {(1, True): 1, (0, False): 1}


def search(M, seed: int, work, small: bool) -> list[Job]:
    rng = random.Random(seed)
    right = M.machines.load_fixture("nd_right")
    pong = M.machines.load_fixture("nd_pong")
    R = M.encode.build_R(right)
    Rneg = M.encode.build_R(pong)
    P = M.encode.pickn_trs()
    pickn_file = work / "pickn.trs"
    pickn_file.write_text(M.encode.emit_trs_file(P))
    words = [M.omega.parse_word(w, right.alphabet) for w in ("(a)^w", "ab(ba)^w")]
    zs = [M.encode.phi(w, R.sig) for w in words]
    strata = _depth3_corpus(M, R, right, zs)
    xi = M.terms.app(R.sig.get("xi"))
    towers = [M.terms.app(R.sig.get(a), M.terms.app(R.sig.get(b), xi))
              for a in ("D1", "D2") for b in ("D1", "D2")]
    picked = rng.sample(towers, 1 if small else 2)
    draw = _SEARCH_DRAW_SMALL if small else _SEARCH_DRAW
    for key in sorted(draw):
        picked += rng.sample(strata[key], draw[key])

    def designated(trs, z):
        sig = trs.sig
        return M.terms.app(sig.get("run"), M.terms.app(sig.get("xi")),
                           M.terms.app(sig.get("q0"), z),
                           M.terms.app(sig.get("D1"), z),
                           M.terms.app(sig.get("D2"), z))

    bot = M.terms.app(R.sig.get("bot"))
    jobs = []

    def normalize_job(name, t, want_final):
        def check(res):
            if not res.found:
                return Failure("did not normalize")
            return _replay_found(M, R, res.trace, want_final)
        jobs.append(Job(name, lambda: M.rewrite.bounded_normalize(
            R, t, fuel=10_000, max_epochs=3), check))

    normalize_job("designated", designated(R, zs[0]), bot)
    for t in picked:
        normalize_job(f"corpus {M.terms.print_term(t)}", t, None)

    # nd_pong rejects its words, so its designated term must not normalize;
    # the search runs until its fuel is gone, which loads match.
    pong_fuel = 20 if small else 200
    zneg = M.encode.phi(M.omega.parse_word("(a)^w", pong.alphabet), Rneg.sig)
    pong_term = designated(Rneg, zneg)
    jobs.append(Job(
        f"nd_pong designated fuel {pong_fuel}",
        lambda: M.rewrite.bounded_normalize(Rneg, pong_term, fuel=pong_fuel,
                                            max_epochs=3),
        lambda res: Failure("negative fixture normalized") if res.found else None))

    n = 3 if small else rng.randint(18, 20)
    target_text = "ok(" + "S(" * n + "0(end)" + ")" * n + ")"
    target = M.terms.parse_term(target_text, P.sig)
    source = M.terms.parse_term("pickn", P.sig)

    def check_reach(res):
        if not res.reached:
            return Failure("target not reached")
        if res.trace.total_steps != 2 * n + 1:
            return Failure(f"{res.trace.total_steps} steps, want {2 * n + 1}")
        return _replay_found(M, P, res.trace, target)

    jobs.append(Job(f"pickn reach n={n}",
                    lambda: M.rewrite.bounded_reach(P, source, target), check_reach))

    # ok(S^600(0(end))) is already a normal form.
    deep = "ok(" + "S(" * 600 + "0(end)" + ")" * 600 + ")"

    def check_deep(got):
        rc, text = got
        if rc != 0 or _last_line(text) != "VERDICT: found":
            return Failure(f"exit {rc}: {_last_line(text)}")
        if f"normal-form: {deep}" not in text.splitlines():
            return Failure("wrong normal form")
        return None

    jobs.append(Job("cli normalize pickn ok(S^600(0(end)))",
                    lambda: _cli(M, ["trs", "normalize", str(pickn_file),
                                     "--term", deep]),
                    check_deep, defect=DEFECT_DEEP_TERM))
    return jobs


# ---------------------------------------------------------------------------
# srs-bisim: the one-sided stepwise bisimulation of criterion 2


def _random_word(rng: random.Random) -> str:
    pre = "".join(rng.choice("_ab") for _ in range(rng.randint(0, 2)))
    cyc = "".join(rng.choice("_ab") for _ in range(rng.randint(1, 3)))
    return f"{pre}({cyc})^w"


def srs_bisim(M, seed: int, work, small: bool) -> list[Job]:
    rng = random.Random(seed)
    depth = 10 if small else 100
    jobs = []

    def law_job(name, m, depth, words=None):
        trs = M.encode.nd_to_srs(m)
        ws = None if words is None else [M.omega.parse_word(w, m.alphabet) for w in words]

        def check(rep):
            if rep.verdict != "holds" or rep.samples < 1:
                return Failure(f"{rep.verdict}: {rep.witness}")
            return None
        jobs.append(Job(name, lambda: M.laws.check_srs_bisim(
            m, words=ws, depth=depth, trs=trs), check))

    # Criterion 2's own jobs: both fixtures at depth 100 and the first
    # machines of its random draw.  Seeded jobs run shallower: a machine
    # that drifts right costs about depth^3, so at depth 100 one seeded
    # draw could swing the pass time by seconds.
    for fx in ("nd_right", "nd_pong"):
        m = M.machines.load_fixture(fx)
        law_job(f"{fx} depth {depth}", m, depth)
        word = _random_word(rng)
        law_job(f"{fx} {word} depth {depth // 2}", m, depth // 2, [word])
    core = random.Random(4049)
    for i in range(1 if small else 3):
        law_job(f"criterion-2 machine {i} depth {depth}",
                M.laws.gen_nd_machine(core), depth)
    for i in range(1 if small else 10):
        law_job(f"seeded machine {i} depth {depth // 5}",
                M.laws.gen_nd_machine(rng), depth // 5)
    return jobs


# ---------------------------------------------------------------------------
# trace-close: `irw trs trace` through the CLI


def trace_close(M, seed: int, work, small: bool) -> list[Job]:
    rng = random.Random(seed)
    files = {}
    for tag, fixture in (("base", "m_ext"), ("Sprime", "m_acc")):
        trs, _ = M.encode.compile_construction(tag, M.machines.load_fixture(fixture))
        files[tag] = work / f"{tag}_{fixture}.trs"
        files[tag].write_text(M.encode.emit_trs_file(trs))
    jobs = []

    # Leftmost-outermost m_ext runs never close: the full-run close_limit
    # scans every start and period of the whole trace.
    for fuel in ((10,) if small else (80, 120, 160)):
        def check_ext(got, fuel=fuel):
            rc, text = got
            if rc != 2 or _last_line(text) != "VERDICT: exhausted":
                return Failure(f"exit {rc}: {_last_line(text)}")
            if len(_printed_steps(text)) != fuel:
                return Failure("step count differs from fuel")
            return None
        jobs.append(Job(f"trace base m_ext fuel {fuel}",
                        lambda fuel=fuel: _cli(M, [
                            "trs", "trace", str(files["base"]),
                            "--term", "q0(end, end)", "--fuel", str(fuel)]),
                        check_ext))

    # Greedy restart runs of Sprime(m_acc) close to the pebble tower.
    sprime = None

    def check_sprime(got):
        nonlocal sprime
        rc, text = got
        if rc != 0 or _last_line(text) != "VERDICT: closed":
            return Failure(f"exit {rc}: {_last_line(text)}")
        if sprime is None:
            sprime = M.rewrite.parse_trs(files["Sprime"].read_text())
        sig = sprime.sig
        lines = text.splitlines()
        limit_text = next(l for l in lines if l.startswith("omega-limit: "))
        limit = M.terms.parse_term(limit_text[len("omega-limit: "):], sig, ground=True)
        if not M.terms.bisim_equal(limit, M.terms.parse_term("rec X . peb(X)", sig)):
            return Failure(f"limit {limit_text}")
        pump = re.search(r"^pump: start=(\d+) len=(\d+)", text, re.M)
        cur = M.terms.parse_term("run(T,pickn,pickn)", sig, ground=True)
        steps = []
        for pos, rid in _printed_steps(text):
            st = M.rewrite.apply_step(sprime, cur, pos, rid)
            steps.append(st)
            cur = st.after
        cert = M.rewrite.PumpCertificate(int(pump.group(1)), int(pump.group(2)),
                                         (), (), "", ())
        epoch = M.rewrite.Epoch(tuple(steps), M.rewrite.Closure(limit, cert))
        if not M.rewrite.validate_certificate(epoch):
            return Failure("certificate does not revalidate on the printed steps")
        return None

    for fuel in sorted(rng.sample(range(30, 121), 1 if small else 3)):
        jobs.append(Job(f"trace Sprime m_acc greedy fuel {fuel}",
                        lambda fuel=fuel: _cli(M, [
                            "trs", "trace", str(files["Sprime"]),
                            "--term", "run(T,pickn,pickn)", "--fuel", str(fuel),
                            "--strategy", "greedy", "--show-terms"]),
                        check_sprime))
    return jobs


# ---------------------------------------------------------------------------
# omega-member: membership semidecision on one-sided machines


def omega_member(M, seed: int, work, small: bool) -> list[Job]:
    rng = random.Random(seed)
    jobs = []

    def member(m, w, fuel, width):
        return lambda: M.omega.membership_semidecide(m, w, fuel=fuel, width=width).kind

    def known(want):
        return lambda got: None if got == want else Failure(f"{got}, want {want}")

    words = OMEGA_WORDS[:2] if small else OMEGA_WORDS
    for fx, want in (("nd_right", "accepted"), ("nd_pong", "rejected_exhausted")):
        m = M.machines.load_fixture(fx)
        for ws in words:
            jobs.append(Job(f"{fx} {ws}", member(m, M.omega.parse_word(ws, m.alphabet), 120, 64),
                            known(want)))
    bug = M.machines.parse_machine(BUG_MACHINE)
    jobs.append(Job("unsound-merge repro b(ba)^w",
                    member(bug, M.omega.parse_word("b(ba)^w", bug.alphabet), 200, 64),
                    known("accepted"), defect=DEFECT_OMEGA_MERGE))
    if not small:
        # Machine 61 of gen_nd_machine(Random(1)) fills the 64-wide
        # frontier to the fuel bound: the pass's slowest job and its memory
        # peak.  Its answer agrees at radius 40 and is certified by a lasso
        # of positive displacement.
        sweep = random.Random(1)
        for _ in range(61):
            M.laws.gen_nd_machine(sweep)
        m61 = M.laws.gen_nd_machine(sweep)
        jobs.append(Job("sweep machine 61 (a)^w",
                        member(m61, M.omega.parse_word("(a)^w", m61.alphabet), 80, 64),
                        known("accepted")))
    # Seeded machines run at fuel 20 and width 8, which caps each query
    # at a few milliseconds whatever the machine does.  Query costs are
    # heavy-tailed (median 24 us, a few near the cap), and at fuel 40 the
    # few capped queries made the seeded part's total differ 2x between
    # seeds; at fuel 20 it differs by under 15%, and over seeds 1..10 the
    # two fuels give as many definite verdicts (2515 and 2538 of 2560)
    # and no conflict at radius 40.
    for i in range(1 if small else 32):
        m = M.laws.gen_nd_machine(rng)
        for ws in words:
            w = M.omega.parse_word(ws, m.alphabet)
            jobs.append(Job(f"seeded machine {i} {ws}", member(m, w, 20, 8),
                            _differential(M, m, w, 20, 8)))
    return jobs


def _differential(M, m, w, fuel, width):
    """A verdict conflicts when it is definite and the same query with the
    dedup window widened to radius 40 gives the other definite answer."""
    oracle = []

    def check(got):
        if not oracle:
            oracle.append(M.omega.membership_semidecide(
                m, w, fuel=fuel, width=width, radius=40).kind)
        if {got, oracle[0]} == {"accepted", "rejected_exhausted"}:
            return Failure(f"{got}, radius 40 says {oracle[0]}", DEFECT_OMEGA_MERGE)
        return None
    return check


WORKLOADS = {
    "search": search,
    "srs-bisim": srs_bisim,
    "trace-close": trace_close,
    "omega-member": omega_member,
}
