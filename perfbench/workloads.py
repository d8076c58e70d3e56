"""The four workloads: op lists built against the public API of cech2.

A workload function receives an ``Api`` (see spans.py) and a seeded
``random.Random`` and returns its ops.  Building the ops is the set-up: it
constructs every space and coefficient object the workload names and draws
every seeded input.  An op's ``run`` makes the library calls that are timed;
its ``check`` compares the outcome with answers from expected.py afterwards,
outside the timed pass.  Outcomes hold only small values, so no op keeps a
large result alive into the next one.

Why these workloads:

* h1-orbits: the six ``cech2 verify abelian`` cases.  Every candidate is a
  cocycle, so only orbit closure works (shows a change to the orbit engine;
  an enumeration change should leave it alone).
* h1-sparse: discrete coefficients where almost no candidates survive the
  triangle filter, so enumeration and its memory dominate (the reverse).
* small-zoo: every stock space with every library coefficient up to 50,000
  candidates, plus both lemmas and exhaustive witness searches; many small
  calls, so fixed per-call costs show in op latency.
* nerve-levels: truncated nerves and their checks; only the nerve layer works.

Only small-zoo uses the seed: it orders the ops and draws the sampled
cocycles, the witnesses applied to them and the witness-search pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from cech2.cohomology import DEFAULT_BUDGET, Cocycle

import expected as ex

SURFACES = ("sphere2", "torus7", "rp2_6")
ZOO_SPACES = ("circle3", "circle6", "interval", "point", "rp2_6", "sphere2", "tetra_solid", "torus7")
ZOO_COEFFS = (
    "discrete:Z2", "discrete:Z4", "discrete:S3", "shift:Z2", "shift:Z3", "aut:Z2", "aut:Z3",
    "aut:S3", "z2z4", "hat:z2z4", "hat:aut:Z3", "hat:shift:Z2",
)
ZOO_CANDIDATE_LIMIT = 50_000
ZOO_SAMPLE = 8
# witness spaces |G|^V |H|^E of 4096, 5832 and 4096
WITNESS_CASES = (("circle3", "hat:z2z4"), ("circle3", "hat:aut:Z3"), ("circle6", "hat:shift:Z2"))
# classify_h1 raises KeyError on this pair, a known defect of the library.  The
# op keeps its expected answer (one class) and counts as failed while it
# raises; it is the only op of any workload that may raise in a correct run.
KNOWN_FAILURES = {"tetra_solid aut:S3"}


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    candidates: int = 0
    may_raise: bool = False


def _once(fn):
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]

    return get


def classify_op(api, space, cx, spec, xm, budget, *, enumerate_=False, sample=(), oracle=None) -> Op:
    """classify_h1 plus its report, class_of on every representative and,
    optionally, enumeration, a sample checked against moved copies, and an oracle."""
    tb = ex.Tables(xm)

    def run():
        cls = api.classify_h1(cx, xm, budget=budget)
        out = {
            "classes": cls.class_count,
            "sizes": cls.sizes(),
            "cocycles": int(cls.num_cocycles),
            "base": cls.base_class,
            "report": api.report(cls),
            "rep_labels": [api.class_of(cls, r) for r in cls.representatives],
        }
        if enumerate_:
            cocycles = api.enumerate_cocycles(cx, xm, budget=budget)
            out["enumerated"] = len(cocycles)
            labels = []
            for u, f, k in sample:
                c = cocycles[int(u * len(cocycles))]
                moved = Cocycle(*ex.act(tb, c.g, c.h, f, k))
                labels.append((api.class_of(cls, c), api.class_of(cls, moved)))
            out["sample_labels"] = labels
        if oracle == "abelian":
            out["oracle"] = api.abelian_oracle_h2(cx, xm.H)
        elif oracle == "holonomy":
            out["holonomy"] = [api.holonomy_oracle(cx, r, xm) for r in cls.representatives]
        return out

    want = _once(lambda: (ex.expected_classes(space, xm), ex.expected_cocycles(space, cx, xm)))

    def check(out):
        classes, cocycles = want()
        n = out["classes"]
        bad = []
        if n != classes:
            bad.append(f"{n} classes, expected {classes}")
        if cocycles is not None and out["cocycles"] != cocycles:
            bad.append(f"{out['cocycles']} cocycles, expected {cocycles}")
        if sum(out["sizes"]) != out["cocycles"]:
            bad.append("class sizes do not sum to the cocycle count")
        if out["rep_labels"] != list(range(n)) or not 0 <= out["base"] < n:
            bad.append("representatives or base class mislabelled")
        if out.get("enumerated", out["cocycles"]) != out["cocycles"]:
            bad.append(f"enumerated {out['enumerated']} cocycles")
        if any(a != b or not 0 <= a < n for a, b in out.get("sample_labels", ())):
            bad.append("class_of differs between a cocycle and a cohomologous copy")
        if out.get("oracle", n) != n:
            bad.append(f"abelian oracle says {out['oracle']}")
        if "holonomy" in out and len(set(out["holonomy"])) != n:
            bad.append("representatives share a holonomy class")
        return bad

    return Op(f"{space} {spec}", "classify", run, check, ex.candidate_count(cx, xm))


def _spaces(api, names):
    return {name: api.standard_space(name) for name in names}


def _coeffs(api, specs):
    return {spec: api.coefficient_from_spec(spec) for spec in specs}


def h1_orbits(api, rng) -> list[Op]:
    spaces = _spaces(api, SURFACES)
    coeffs = _coeffs(api, ("shift:Z2", "shift:Z3"))
    ops = []
    for space in SURFACES:
        for spec, xm in coeffs.items():
            cx = spaces[space]
            budget = max(DEFAULT_BUDGET, xm.H.order ** len(cx.simplices_of_dim(2)))
            ops.append(classify_op(api, space, cx, spec, xm, budget, oracle="abelian"))
    return ops


def h1_sparse(api, rng) -> list[Op]:
    cases = (("torus7", "discrete:Z2"), ("rp2_6", "discrete:Z2"), ("sphere2", "discrete:S3"), ("tetra_solid", "discrete:S3"))
    spaces = _spaces(api, sorted({s for s, _ in cases}))
    coeffs = _coeffs(api, sorted({c for _, c in cases}))
    ops = []
    for space, spec in cases:
        cx, xm = spaces[space], coeffs[spec]
        budget = max(DEFAULT_BUDGET, ex.candidate_count(cx, xm))
        ops.append(classify_op(api, space, cx, spec, xm, budget, enumerate_=True))
    return ops


def _lemma2_op(api, space, cx, ses) -> Op:
    k = ex.discrete(ses.K)

    def check(out):
        want = ex.expected_classes(space, k), ex.expected_cocycles(space, cx, k)
        got = out["classes"], out["cocycles_k"]
        bad = [] if out["ok"] else list(out["failures"])
        if got != want or out["classes_k"] != want[0]:
            bad.append(f"classes and K-cocycles {got}, expected {want}")
        return bad

    return Op(f"lemma2 {space}", "lemma2", lambda: api.verify_lemma2(ses, cx), check)


def _lemma3_op(api, label, space, cx, ses) -> Op:
    def check(out):
        want = [ex.expected_classes(space, xm) for xm in (ses.left.dom, ses.left.cod, ses.right.cod)]
        bad = [] if out["ok"] else list(out["failures"])
        if out["classes"] != want:
            bad.append(f"classes {out['classes']}, expected {want}")
        return bad

    return Op(f"lemma3 {label} {space}", "lemma3", lambda: api.verify_lemma3(ses, cx), check)


def _witness_op(api, label, cx, xm, c1, c2, cohomologous) -> Op:
    tb = ex.Tables(xm)

    def run():
        w = api.cohomologous_check(c1, c2, cx, xm)
        return {"witness": None if w is None else (w.f, w.k)}

    def check(out):
        w = out["witness"]
        if not cohomologous:
            return [] if w is None else ["found a witness between cocycles of different holonomy"]
        if w is None:
            return ["no witness found for a cohomologous pair"]
        return [] if ex.act(tb, c1.g, c1.h, *w) == (c2.g, c2.h) else ["witness does not carry c1 to c2"]

    return Op(label, "witness", run, check)


def _witness_ops(api, rng, spaces, coeffs, cases=WITNESS_CASES) -> list[Op]:
    """Per case, one pair related by a seeded witness and, where G/t(H) has
    more than one conjugacy class, one pair with different holonomy."""
    ops = []
    for space, spec in cases:
        cx, xm = spaces[space], coeffs[spec]
        tb = ex.Tables(xm)
        loop = ex.LOOPS[space]
        edges = cx.simplices_of_dim(1)
        draw = lambda: {e: rng.randrange(xm.G.order) for e in edges}
        c1 = Cocycle(draw(), {})
        f, k = ex.random_witness(rng, tb, range(cx.vertex_count), edges)
        moved = Cocycle(*ex.act(tb, c1.g, c1.h, f, k))
        ops.append(_witness_op(api, f"witness {space} {spec} moved", cx, xm, c1, moved, True))
        if ex.expected_classes(space, xm) > 1:
            other = draw()
            while ex.holonomy_class(tb, loop, other) == ex.holonomy_class(tb, loop, c1.g):
                other = draw()
            ops.append(_witness_op(api, f"witness {space} {spec} apart", cx, xm, c1, Cocycle(other, {}), False))
    return ops


def small_zoo(api, rng) -> list[Op]:
    spaces = _spaces(api, ZOO_SPACES)
    coeffs = _coeffs(api, ZOO_COEFFS)
    ops = []
    for space in ZOO_SPACES:
        cx = spaces[space]
        for spec in ZOO_COEFFS:
            xm = coeffs[spec]
            if ex.candidate_count(cx, xm) > ZOO_CANDIDATE_LIMIT:
                continue
            tb = ex.Tables(xm)
            sample = [
                (rng.random(), *ex.random_witness(rng, tb, range(cx.vertex_count), cx.simplices_of_dim(1)))
                for _ in range(ZOO_SAMPLE)
            ]
            oracle = None
            if xm.G.order == 1 and space in SURFACES:
                oracle = "abelian"
            elif xm.H.order == 1 and space in ex.LOOPS:
                oracle = "holonomy"
            op = classify_op(api, space, cx, spec, xm, DEFAULT_BUDGET, enumerate_=True, sample=sample, oracle=oracle)
            op.may_raise = op.label in KNOWN_FAILURES
            ops.append(op)
    ses2 = api.z2z4z2_group_ses()
    for space in ("circle3", "circle6", "sphere2"):
        ops.append(_lemma2_op(api, space, spaces[space], ses2))
    _, hat_ses = api.hat_construction(coeffs["z2z4"])
    for label, ses in (("hat:z2z4", hat_ses), ("discrete:z2-z4-z2", api.z2z4z2_discrete_ses())):
        for space in ("circle3", "sphere2"):
            ops.append(_lemma3_op(api, label, space, spaces[space], ses))
    ops += _witness_ops(api, rng, spaces, coeffs)
    rng.shuffle(ops)
    return ops


def _nerve_op(api, spec, xm, depth) -> Op:
    def run():
        nsg = api.nerve_two_group(xm, depth)
        ids = api.check_simplicial_identities(nsg)
        iso = api.check_level_iso(nsg, xm)
        return {"levels": ids["levels"], "failures": ids["failures"] + iso["failures"]}

    def check(out):
        want = ex.nerve_orders(xm, depth)
        return out["failures"] + ([] if out["levels"] == want else [f"levels {out['levels']}, expected {want}"])

    return Op(f"nerve {spec} depth {depth}", "nerve", run, check)


def nerve_levels(api, rng) -> list[Op]:
    cases = (("aut:K4", 3), ("aut:S3", 2), ("z2z4", 4), ("aut:Z3", 4))
    coeffs = _coeffs(api, [spec for spec, _ in cases])
    ops = [_nerve_op(api, spec, coeffs[spec], depth) for spec, depth in cases]
    z2, z3 = api.builtin_group("Z2"), api.builtin_group("Z3")
    inversion = api.inversion_action(z2, z3)

    def check(out):
        want = ex.bar_pairs(2, 3, 2)
        return out["failures"] + ([] if out["pairs"] == want else [f"pairs {out['pairs']}, expected {want}"])

    ops.append(Op("bar Z2 on Z3 depth 2", "bar", lambda: api.check_bar_multiplication(z2, z3, inversion, 2), check))
    return ops


WORKLOADS = {
    "h1-orbits": h1_orbits,
    "h1-sparse": h1_sparse,
    "small-zoo": small_zoo,
    "nerve-levels": nerve_levels,
}
