"""Benchmark of cech2: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload small-zoo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Set-up (interpreter, ``import cech2``, every space and
coefficient object the workload names, seeded inputs) is timed in fresh
child processes, half of them before the passes and half after, so that
their median samples the machine over the whole run; it is excluded from
the passes.  The run repeats whole passes over the workload's ops until
``--seconds`` would be exceeded, and checks every outcome against an
independent answer.

Every run prints op latency (p50, p75), cocycles per second, the error
rate with its counts and a digest of the reports.  ``--trace 0`` ends with
the end-to-end metrics (wall_s, setup_s, peak_rss_mb); ``--trace 1``
alternates untraced and traced passes and ends with per-layer self times
from spans around each public call (spans.py), the tracing overhead and
the layer counts.  The last line of stdout is one JSON object.  Full
results, per-op times, report digests and the spans of a traced run go to
perfbench/out.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # before the passes, and as many again after them


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    trim = getattr(libc, "malloc_trim", None)
    if trim is None:
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


def import_library():
    """Import cech2 from this checkout's src, never from anywhere else."""
    if not (SRC / "cech2" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cech2 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cech2

    if Path(cech2.__file__).resolve().parent != SRC / "cech2":
        raise SystemExit(f"perfbench: imported cech2 from {cech2.__file__}, not {SRC}")


@dataclass
class Pass:
    wall: float
    durations: list
    outcomes: list
    traced: bool


def run_pass(ops, tracer=None) -> Pass:
    """Run every op once; the pass time is the sum of op times.

    Before each op, outside its time, a full collection and a malloc trim
    return the previous op's garbage and free heap pages, so that neither a
    collection pause nor the peak RSS depends on the seeded op order.
    """
    trim = _malloc_trim()
    outcomes, durations = [], []
    for op in ops:
        gc.collect()
        trim()
        if tracer:
            tracer.op = op.label
            sid = tracer.begin("bench.op")
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op; keep going and report it
            out = {"error": f"{type(exc).__name__}: {exc}"[:300]}
        durations.append(perf_counter() - t0)
        if tracer:
            tracer.end(sid)
            tracer.op = None
        outcomes.append(out)
    return Pass(sum(durations), durations, outcomes, tracer is not None)


def measure(seconds: float, plain_ops, traced_ops=None, tracer=None) -> list[Pass]:
    """Whole passes while the next one (estimated by the last) still fits.

    With traced ops, an uncounted warm-up pass comes first, so that the
    tracing overhead is not mixed with first-pass costs; then untraced and
    traced passes alternate, at least one of each.
    """
    if traced_ops is not None:
        run_pass(plain_ops)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(plain_ops))
        if traced_ops is not None:
            passes.append(run_pass(traced_ops, tracer))
        last = passes[-1].wall + (passes[-2].wall if traced_ops is not None else 0.0)
        if perf_counter() - start + last > seconds:
            return passes


def check(ops, passes):
    """Failed ops over all passes, the failures that make the run incorrect,
    the reasons, and each op's report digest.

    An op fails if it raises or its outcome disagrees with its independent
    answer.  Only ops marked ``may_raise`` (a known library defect) may raise
    without making the run incorrect; a wrong answer or a report that is not
    byte-identical across the run's passes, traced or not, always does.
    """
    digests, failed, bad, reasons = {}, 0, 0, {}
    for p in passes:
        for op, out in zip(ops, p.outcomes):
            raised = "error" in out
            problems = [out["error"]] if raised else op.check(out)
            if "report" in out:
                digest = hashlib.sha256(out["report"]).hexdigest()
                if digests.setdefault(op.label, digest) != digest:
                    problems.append("report bytes differ between passes")
            if problems:
                failed += 1
                bad += not (raised and op.may_raise)
                reasons.setdefault(op.label, problems)
    return failed, bad, reasons, digests


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
    return elapsed


def counts(ops, outcomes) -> dict:
    """Layer counts of one pass, from public data only."""
    c = dict.fromkeys(
        ("cohomology.candidates", "cohomology.cocycles", "cohomology.classes", "exactness.kernel_lifts",
         "nerve.table_cells", "fixtures.report_bytes"), 0)
    for op, out in zip(ops, outcomes):
        c["cohomology.candidates"] += op.candidates
        c["cohomology.cocycles"] += out.get("cocycles", 0) if op.kind == "classify" else 0
        c["cohomology.classes"] += out.get("classes", 0) if op.kind == "classify" else 0
        c["exactness.kernel_lifts"] += out.get("kernel_lifts", 0)
        c["nerve.table_cells"] += sum(n * n for n in out.get("levels", ()))
        c["fixtures.report_bytes"] += len(out.get("report", b""))
    return c


def context(seed: int, passes: int) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    sources = hashlib.sha256()
    for path in sorted((SRC / "cech2").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "commit": commit,
        "sources_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "passes": passes,
    }


def median_pass(passes) -> float:
    """One pass built from each op's median time over the given passes.

    A pass runs for seconds and the machine's speed can dip for part of
    one.  With three passes, the per-op median leaves out dips that hit
    different ops in different passes; the median pass would keep one.
    """
    return sum(statistics.median(times) for times in zip(*(p.durations for p in passes)))


def end_to_end(wall, setup, peak_rss_mb) -> dict:
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, setup_spans: int, plain, traced, per_pass: dict) -> tuple[dict, str]:
    """Self seconds per layer (set-up once plus the mean traced pass) and the
    layer counts, with a line that sets the traced pass against the untraced
    one: their difference is the tracing overhead."""
    from spans import LAYERS, self_times

    seconds, calls = self_times(tracer.spans, first=setup_spans)
    setup_seconds, _ = self_times(tracer.spans[:setup_spans])
    n = len(traced)
    metrics = {f"{name}_s": (setup_seconds.get(name, 0.0) + seconds.get(name, 0.0) / n, "s") for name in LAYERS}
    metrics["cohomology.classify_calls"] = (calls.get("cohomology.classify", 0) // n, "count")
    metrics.update({name: (value, "bytes" if name.endswith("bytes") else "count") for name, value in per_pass.items()})
    metrics["bench.harness_s"] = (seconds.get("bench.op", 0.0) / n, "s")
    layers = sum(seconds.get(name, 0.0) for name in LAYERS) / n
    traced_wall = sum(p.wall for p in traced) / n
    plain_wall = sum(p.wall for p in plain) / len(plain)
    summary = (
        f"traced pass {traced_wall:.6f} s: layers {layers:.6f} s + harness {metrics['bench.harness_s'][0]:.6f} s;"
        f" untraced pass {plain_wall:.6f} s, so tracing overhead {traced_wall - plain_wall:.6f} s"
        f" (means over {n} traced and {len(plain)} untraced passes)"
    )
    return metrics, summary


def declared(metrics: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json declares for this mode, in its order.

    A layer that a workload never calls has no spans there, so its self
    time reads 0.0 on that workload, as its counts read 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    out = {}
    for m in spec:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    from spans import Api, Tracer, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    if args.setup_probe:
        build(Api(), random.Random(args.seed))
        print("ready", flush=True)
        return 0

    probes = 0 if args.trace else SETUP_PROBES
    setup = [probe_setup(args.workload, args.seed) for _ in range(probes)]
    ops = build(Api(), random.Random(args.seed))
    tracer = traced_ops = None
    if args.trace:
        tracer = Tracer()
        tracer.op = "setup"
        traced_ops = build(Api(tracer), random.Random(args.seed))
        tracer.op = None
    setup_spans = len(tracer.spans) if tracer else 0

    passes = measure(args.seconds, ops, traced_ops, tracer)
    gc.collect()
    _malloc_trim()()
    setup += [probe_setup(args.workload, args.seed) for _ in range(probes)]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    OUT.mkdir(exist_ok=True)
    failed, bad, reasons, digests = check(ops, passes)
    attempted = len(ops) * len(passes)
    ctx = context(args.seed, len(passes))
    per_pass = counts(ops, plain[0].outcomes)
    wall = median_pass(plain)
    quartiles = [statistics.quantiles(p.durations, n=4) for p in plain]
    beyond = min(sum(d > q[2] for d in p.durations) for p, q in zip(plain, quartiles))
    classify = [op for op in ops if op.kind == "classify"]
    lines = [
        f"perfbench {args.workload}: {len(ops)} ops per pass, {len(plain)} untraced and {len(traced)} traced passes",
        "context " + " ".join(f"{k}={v}" for k, v in ctx.items()),
        f"wall_s {wall:.6f} s (sum of each op's median time over {len(plain)} passes;"
        f" median pass {statistics.median(p.wall for p in plain):.6f} s)",
        f"op_p50_s {statistics.median(q[1] for q in quartiles):.6f} s, op_p75_s {statistics.median(q[2] for q in quartiles):.6f} s"
        f" (median over passes; {len(ops)} ops per pass, {beyond} beyond p75)",
        f"peak_rss_mb {peak_rss_mb:.1f} MB",
        f"error_rate {failed / attempted:.6f} ratio ({failed} failed of {attempted} ops attempted;"
        f" {sum(op.label in reasons for op in classify)} of {len(classify)} classify ops failing;"
        f" {bad} failures outside the known ones)",
    ]
    if digests:
        report_digest = hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest()[:16]
        lines.append(f"report_sha256 {report_digest} (every report of a pass, by op label; the same sources give the same digest)")
    if per_pass["cohomology.cocycles"]:
        cocycles = per_pass["cohomology.cocycles"]
        lines.append(f"cocycles_per_s {cocycles / wall:.1f} 1/s ({cocycles} cocycles per pass)")
    lines += [f"FAILED {label}: {'; '.join(p)}" for label, p in sorted(reasons.items())]

    if args.trace:
        metrics, summary = per_layer(tracer, setup_spans, plain, traced, per_pass)
        lines.append(summary)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", tracer.spans)
    else:
        metrics = end_to_end(wall, setup, peak_rss_mb)
    lines += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]

    result = {"correct": bad == 0, "attempted": attempted, "failed": failed, "metrics": declared(metrics, args.trace)}
    details = {
        "context": ctx,
        "summary": lines,
        "failures": reasons,
        "report_sha256": digests,
        "setup_samples": setup,
        "pass_walls": [[p.wall, p.traced] for p in passes],
        "op_seconds": {op.label: [p.durations[i] for p in passes] for i, op in enumerate(ops)},
        "all_metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
