#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 45 --trace 0

Workloads: forms, closure, highwater, cli (see perfbench/README.md), or
`all`, which runs the four in turn as separate processes and prints one
summary.  Every job's answer is checked; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics with tracing off, each time
rescaled to a reference machine speed (see speed.py).  --trace 1
alternates untraced and traced passes, then runs a fixed probe block, and
reports the per-layer metrics aggregated from the spans (written as JSON
lines under .perfbench/spans/).  A full record with the environment block
goes to .perfbench/results/ (or --out) for perfbench/compare.py.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("forms", "closure", "highwater", "cli")
# Passes every run makes whatever --seconds says, so that the tail percentile
# below always has at least ten samples beyond it.
MIN_PASSES = {"forms": 5, "closure": 4, "highwater": 2, "cli": 6}
SETUP_REPEATS = 7
SETUP_KERNEL_REPEATS = 15
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "largest_job_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="directory for result records")
    ap.add_argument("--smoke", action="store_true",
                    help="run only the smallest job once (used by selfcheck.py)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_only(args):
    """Time import plus input construction in this fresh interpreter, then
    the reference kernel, which gives the rescaling factor."""
    t0 = time.perf_counter()
    import workloads
    from spans import NullTracer

    workloads.make_inputs(args.workload, args.seed, NullTracer())
    raw = time.perf_counter() - t0
    import speed

    factor = speed.REFERENCE_MS / speed.kernel_ms(SETUP_KERNEL_REPEATS)
    print(json.dumps({"setup_s": raw * factor, "raw_setup_s": raw}))
    return 0


def setup_times(args, repeats):
    """Rescaled set-up times of `repeats` fresh interpreters, and the raw ones."""
    times, raw = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"setup child failed: {out.stderr.strip()[-500:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(res["setup_s"])
        raw.append(res["raw_setup_s"])
    return times, raw


def tail_percentile(n_planned):
    """Highest whole percentile with at least ten of n_planned samples beyond it."""
    return math.floor(100 * (1 - 10 / n_planned)) if n_planned > 10 else None


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of [(i-1)/n, i/n].

    It uses every sample, so it varies less from run to run than a single
    order statistic does, and where call latencies cluster by call it moves
    smoothly instead of jumping between clusters.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - norm)

    steps = 16  # Simpson's rule on each interval; weights are renormalised
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        acc = pdf(lo) + pdf(lo + steps * h)
        acc += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append(acc * h / 3)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def job_medians(samples):
    per_job = {}
    for pass_index, job, _, dt, _ in samples:
        cell = per_job.setdefault(job, {})
        cell[pass_index] = cell.get(pass_index, 0.0) + dt
    return {job: statistics.median(v.values()) for job, v in per_job.items()}


class Runner:
    def __init__(self, args, workloads, tracer):
        self.args = args
        self.workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}"
        self.inputs = workloads.make_inputs(args.workload, args.seed, tracer, self.workdir)
        name = args.workload
        self.pass_fn = getattr(workloads, f"{name}_{'smoke' if args.smoke else 'pass'}")
        self.largest_fn = getattr(workloads, f"{name}_largest", None)

    def one_pass(self, rec, fn=None):
        fn = fn or self.pass_fn
        extra = (child_env(), str(ROOT)) if self.args.workload == "cli" else ()
        t0 = time.perf_counter()
        with rec.tracer.span("bench.pass", job=f"pass:{rec.pass_index}"):
            fn(self.inputs, rec, *extra)
        rec.pass_index += 1
        return time.perf_counter() - t0


def run_untraced(args, runner, rec, repeats):
    """Passes for --seconds (at least the minimum), then the extra runs of
    the largest job.  Samples of those extra runs carry pass indices past
    the last pass."""
    walls = []
    min_passes = 1 if args.smoke else MIN_PASSES[args.workload]
    t_end = time.perf_counter() + args.seconds
    while len(walls) < min_passes or time.perf_counter() < t_end:
        walls.append(runner.one_pass(rec))
        if args.smoke:
            break
    for _ in range(0 if args.smoke else repeats):
        runner.one_pass(rec, runner.largest_fn)
    rec.speed.sample()
    return walls


def rescaled(rec):
    """The run's samples, each call's time rescaled by the machine speed
    measured around it."""
    return [(i, job, span, dt * rec.speed.factor(t0, t0 + dt), t0)
            for i, job, span, dt, t0 in rec.samples]


def end_to_end(args, rec, raw_walls, setup, largest_job):
    import speed

    samples = rescaled(rec)
    walls = [0.0] * len(raw_walls)
    per_pass = {}
    for pass_index, job, _, dt, _ in samples:
        if pass_index < len(walls):
            walls[pass_index] += dt
        if job == largest_job:
            per_pass[pass_index] = per_pass.get(pass_index, 0.0) + dt
    if not per_pass:  # smoke runs skip the largest job; report the pass instead
        per_pass = dict(enumerate(walls))
    in_passes = [s for s in samples if s[0] < len(walls)]
    lat = [dt * 1e3 for _, _, _, dt, _ in in_passes]
    calls_per_pass = sum(1 for s in rec.samples if s[0] == 0)
    p_tail = tail_percentile(calls_per_pass * (1 if args.smoke else MIN_PASSES[args.workload]))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    setup, raw_setup = setup
    metrics = {
        "setup_s": hd_quantile(setup, 0.5),
        "wall_s": hd_quantile(walls, 0.5),
        "largest_job_s": hd_quantile(list(per_pass.values()), 0.5),
        "latency_p50_ms": hd_quantile(lat, 0.5),
        "latency_tail_ms": hd_quantile(lat, p_tail / 100) if p_tail else max(lat),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {
        "largest_job": largest_job,
        "tail_percentile": p_tail,
        "latency_samples": len(lat),
        "latencies_ms": lat,
        "largest_job_samples_s": list(per_pass.values()),
        "job_median_s": job_medians(in_passes),
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "raw_wall_s": hd_quantile(raw_walls, 0.5),
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "speed_samples": rec.speed.samples,
        "raw_samples": rec.samples,
        "kernel_median_ms": rec.speed.kernel_median_ms(),
        "reference_ms": speed.REFERENCE_MS,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extra


def run_traced(args, runner, layers, plain, traced):
    """Alternate untraced and traced passes, then the probe block."""
    walls = {False: [], True: []}
    t_end = time.perf_counter() + args.seconds
    use_trace = False
    while not (walls[False] and walls[True]) or time.perf_counter() < t_end:
        walls[use_trace].append(runner.one_pass(traced if use_trace else plain))
        if args.smoke and walls[False] and walls[True]:
            break
        use_trace = not use_trace
    layers.run_probes(traced)
    tracer = traced.tracer
    with tracer.span("cli.interp", job="probe:cli") as ctr:
        interp, imp = layers.interpreter_floor(child_env(), str(ROOT))
        ctr.update({"repeats": layers.CHILD_REPEATS, "interp_ms": interp, "import_ms": imp})
    metrics = layers.aggregate(tracer.records, len(walls[True]))
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (imp, "ms")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    extra = {"traced_passes": len(walls[True]), "untraced_passes": len(walls[False]),
             "traced_walls_s": walls[True], "untraced_walls_s": walls[False]}
    return metrics, extra


def run_workload(args):
    import envinfo
    import speed
    import workloads
    from spans import NullTracer, Tracer

    env = envinfo.environment(ROOT)
    setup = setup_times(args, 1 if args.smoke else SETUP_REPEATS)
    if args.trace:
        import layers

        tracer = Tracer()
        runner = Runner(args, workloads, tracer)
        plain, traced = workloads.Recorder(NullTracer()), workloads.Recorder(tracer)
        metrics, extra = run_traced(args, runner, layers, plain, traced)
        recs = (plain, traced)
        spans_dir = ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        extra["spans"] = str(spans_path.relative_to(ROOT))
    else:
        rec = workloads.Recorder(NullTracer(), speed.SpeedTracker())
        runner = Runner(args, workloads, rec.tracer)
        walls = run_untraced(args, runner, rec, workloads.LARGEST_REPEATS[args.workload])
        metrics, extra = end_to_end(args, rec, walls, setup,
                                    workloads.LARGEST_JOB[args.workload])
        recs = (rec,)
    env["calibration_end_ms"] = speed.kernel_ms(envinfo.CALIBRATION_REPEATS)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    failures = [f for r in recs for f in r.failures]
    missing = [k for k, (v, _) in metrics.items() if v is None]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": failures + [f"metric {k} has no samples" for k in missing],
        "extra": extra, "result": result,
    }
    out_dir = Path(args.out) if args.out else ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "smoke" if args.smoke else f"trace{args.trace}"
    (out_dir / f"{args.workload}-seed{args.seed}-{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"{k:36s} {v if v is None else f'{v:.6g}':>14} {u}")
    print(f"{'fail_frac':36s} {record['fail_frac']:>14.6g} fraction"
          f"  ({failed} of {attempted} jobs)")
    for k in ("tail_percentile", "latency_samples", "passes", "raw_wall_s",
              "kernel_median_ms"):
        if k in extra:
            print(f"# {k} {extra[k]}")
    for f in record["failures"]:
        print(f"# FAILED {f}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one summary table at the end."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            status = 1
            continue
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print("# summary")
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        cells = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:10s} fail_frac={frac:.3g}  {cells}")
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "axial" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src' / 'axial'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
