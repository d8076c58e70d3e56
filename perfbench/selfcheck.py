"""Fast self-check of the benchmark harness on a tiny op list.

    python3 perfbench/selfcheck.py

Exercises span bookkeeping, the independent answers, the op checks, pass
measurement and report digests in a few seconds, and exits non-zero on the
first mismatch.
"""

from __future__ import annotations

import random
import sys

import run

run.import_library()

from cech2.cohomology import CoboundaryWitness, Cocycle, apply_coboundary  # noqa: E402

import expected as ex  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Api, Tracer, self_times  # noqa: E402

CHECKS = []


def expect(cond, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    CHECKS.append(what)


def check_spans():
    spans = [["a", 0.0, 10.0, None, None], ["b", 1.0, 4.0, 0, "x"], ["c", 2.0, 3.0, 1, "x"], ["b", 5.0, 6.0, 0, "x"]]
    seconds, calls = self_times(spans)
    expect(seconds == {"a": 6.0, "b": 3.0, "c": 1.0} and calls == {"a": 1, "b": 2, "c": 1}, "self times of nested spans")
    expect(self_times(spans, first=1)[0] == {"b": 3.0, "c": 1.0}, "self times skip set-up spans")

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 1 / 0)
    outer = tracer.wrap("outer", lambda: inner())
    try:
        outer()
    except ZeroDivisionError:
        pass
    names = [(s[0], s[3]) for s in tracer.spans]
    expect(names == [("outer", None), ("inner", 0)] and all(s[2] is not None for s in tracer.spans), "spans close on exceptions")


def check_expected(api):
    cx = {name: api.standard_space(name) for name in ex.PI1}
    xm = {spec: api.coefficient_from_spec(spec) for spec in ("discrete:S3", "shift:Z3", "z2z4", "hat:aut:Z3")}
    cases = {
        ("circle3", "discrete:S3"): 3,  # conjugacy classes of S3
        ("torus7", "discrete:S3"): 8,  # commuting pairs of S3 up to conjugation
        ("rp2_6", "discrete:S3"): 2,  # involutions and the identity, up to conjugation
        ("rp2_6", "shift:Z3"): 1,  # Z3 / 2 Z3
        ("sphere2", "shift:Z3"): 3,
        ("circle6", "z2z4"): 2,  # Z4 / Z2
        ("sphere2", "hat:aut:Z3"): 1,
    }
    for (space, spec), want in cases.items():
        expect(ex.expected_classes(space, xm[spec]) == want, f"expected classes on {space} with {spec}")
    expect(ex.expected_cocycles("torus7", cx["torus7"], xm["discrete:S3"]) == 6**6 * 18, "torus closed form")
    expect(ex.expected_cocycles("tetra_solid", cx["tetra_solid"], xm["shift:Z3"]) == 27, "one-object closed form")

    rng = random.Random(5)
    space = cx["sphere2"]
    for x in (xm["hat:aut:Z3"], api.coefficient_from_spec("aut:S3")):
        tb = ex.Tables(x)
        c = Cocycle({e: 0 for e in space.edges}, {t: 0 for t in space.triangles})
        for _ in range(5):
            f, k = ex.random_witness(rng, tb, range(space.vertex_count), space.edges)
            mine = Cocycle(*ex.act(tb, c.g, c.h, f, k))
            expect(mine == apply_coboundary(c, CoboundaryWitness(f, k), space, x), f"coboundary action agrees with the library on {x.name}")
            c = mine


def tiny_ops(api, rng):
    cx = {name: api.standard_space(name) for name in ("point", "circle3", "sphere2")}
    xm = {spec: api.coefficient_from_spec(spec) for spec in ("discrete:S3", "shift:Z2", "hat:z2z4")}
    sample = [(rng.random(), *ex.random_witness(rng, ex.Tables(xm["discrete:S3"]), range(3), cx["circle3"].edges))]
    ops = [
        wl.classify_op(api, "point", cx["point"], "discrete:S3", xm["discrete:S3"], 10**6),
        wl.classify_op(api, "circle3", cx["circle3"], "discrete:S3", xm["discrete:S3"], 10**6,
                       enumerate_=True, sample=sample, oracle="holonomy"),
        wl.classify_op(api, "sphere2", cx["sphere2"], "shift:Z2", xm["shift:Z2"], 10**6, oracle="abelian"),
        wl._lemma2_op(api, "circle3", cx["circle3"], api.z2z4z2_group_ses()),
    ]
    return ops + wl._witness_ops(api, rng, cx, xm, cases=(("circle3", "hat:z2z4"),))


def check_passes():
    plain = tiny_ops(Api(), random.Random(3))
    tracer = Tracer()
    traced = tiny_ops(Api(tracer), random.Random(3))
    setup = len(tracer.spans)
    expect([op.label for op in plain] == [op.label for op in traced], "same seed, same ops")
    expect(len(plain) == 6, "tiny op list has four ops and two witness pairs")

    passes = run.measure(0.0, plain, traced, tracer)
    expect([p.traced for p in passes] == [False, True], "one untraced and one traced pass")
    failed, bad, reasons, digests = run.check(plain, passes)
    expect((failed, bad) == (0, 0), f"tiny ops pass their checks: {reasons}")
    expect(sorted(digests) == ["circle3 discrete:S3", "point discrete:S3", "sphere2 shift:Z2"], "a digest per report")
    expect(abs(run.median_pass(passes) - (passes[0].wall + passes[1].wall) / 2) < 1e-9, "two passes: per-op medians sum to the mean pass")
    passes[1].outcomes[0]["report"] += b" "
    expect(run.check(plain, passes)[:2] == (1, 1), "a report that differs between passes fails the run")
    passes[1].outcomes[0]["report"] = passes[0].outcomes[0]["report"]

    seconds, _ = self_times(tracer.spans, first=setup)
    op_spans = sum(end - start for name, start, end, _, _ in tracer.spans[setup:] if name == "bench.op")
    expect(abs(sum(seconds.values()) - op_spans) < 1e-9, "self times add up to the op spans")
    expect(0 <= op_spans - passes[1].wall < 1e-3 * len(traced), "op spans cover the traced pass")
    expect(seconds["cohomology.classify"] > 0 and seconds["cohomology.witness_search"] > 0, "layers are traced")

    wrong_answer = dict(passes[0].outcomes[1], classes=passes[0].outcomes[1]["classes"] + 1)
    expect(any("expected 3" in p for p in plain[1].check(wrong_answer)), "a wrong class count is caught")
    raising = wl.Op("raises", "classify", lambda: {}[0], lambda out: [])
    p = run.run_pass([raising])
    expect(run.check([raising], [p])[:2] == (1, 1), "an op that raises fails the run")
    raising.may_raise = True
    expect(run.check([raising], [p])[:2] == (1, 0), "a known failure fails its op, not the run")
    fixed = wl.Op("fixed", "classify", lambda: {}, lambda out: [], may_raise=True)
    expect(run.check([fixed], [run.run_pass([fixed])])[:2] == (0, 0), "a known failure may pass once fixed")
    counts = run.counts(plain, passes[0].outcomes)
    expect(counts["cohomology.cocycles"] == 1 + 216 + 16, "counts sum the classify ops")


def main() -> int:
    check_spans()
    check_expected(Api())
    check_passes()
    print(f"selfcheck: {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
