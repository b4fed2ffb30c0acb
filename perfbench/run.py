"""Benchmark for twistlab: seeded workloads, exact correctness gates, timings.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Workloads: catalog, finder64, session (see workloads.py).  The
program under test is the source tree at src/twistlab next to this
directory; without it the benchmark exits with status 2.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up (imports
plus input generation) is timed in this process and in PROBES fresh
processes, and setup_s is their median.  Then --seconds // PASS_S whole
passes run, at least one, where PASS_S is the workload's nominal pass time:
the pass count, and with it the number of item latencies pooled, depends on
--seconds only, not on how fast the host happens to run.  run_s is the
median pass time, item_p50_s the median item latency, item_tail_s the
highest percentile with at least ten items beyond it (the maximum when a
measurement has fewer than eleven items), and peak_rss_mb this process's
peak resident memory.

--trace 1 runs one untraced pass, one pass with spans on every public
twistlab function, and one pass counting scalar operations, then times
scalar operations on operands sampled from that pass.  It prints the
per-layer metrics and writes the spans to .perfbench-out/.

Every pass goes through the correctness gate.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; failed / attempted is the failure ratio.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
PROBES = 8
clock = time.perf_counter

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("item_p50_s", "s"),
              ("item_tail_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_layers():
    sys.path.insert(0, str(SRC))
    import tracer
    modules = tracer.package_modules()
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"twistlab imported from {where}, not {SRC}")
    return modules


def make_workload(name, seed):
    import workloads
    return workloads.WORKLOADS[name](seed, WORK / f"{name}-{os.getpid()}")


def probe_setup(name, seed):
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum below eleven samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n >= 11:
        return lat[n - 11], 100.0 * (n - 10) / n, n
    return lat[-1], 100.0, n


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "twistlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance():
    return (f"provenance python {platform.python_version()} nproc "
            f"{os.cpu_count()} source-sha256 {source_digest()}")


def run_timed(name, seed, seconds):
    t0 = clock()
    import_layers()
    work = make_workload(name, seed)
    setups = [clock() - t0]
    try:
        setups += [probe_setup(name, seed) for _ in range(PROBES)]
        count = max(1, int(seconds // work.PASS_S))
        passes = [work.run_pass() for _ in range(count)]
    finally:
        work.close()
    latencies = [dt for p in passes for _, dt, _ in p.items]
    tail_s, pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = [f"passes {len(passes)}",
             f"item_tail_s is p{pct:.1f} of {n} item latencies",
             f"setup samples {', '.join(f'{s:.4f}' for s in setups)}"]
    units = dict(END_TO_END)
    return passes, {k: (v, units[k]) for k, v in metrics.items()}, notes


SCALAR_OPS = ("cyc_mul", "cyc_add", "cyc_inverse", "cyc_promote")
TIMED_OPS = ("cyc_mul", "cyc_inverse")


def run_traced(name, seed):
    import tracer as tr
    modules = import_layers()
    setup_tracer = tr.Tracer(modules)
    setup_tracer.install()
    try:
        work = make_workload(name, seed)
    finally:
        setup_tracer.restore()
    spans = tr.Tracer(modules)
    counter = tr.ScalarCounter(modules)
    try:
        base = work.run_pass()
        spans.install()
        try:
            traced = work.run_pass(spans)
        finally:
            spans.restore()
        counter.install()
        try:
            counted = work.run_pass()
        finally:
            counter.restore()
    finally:
        work.close()

    metrics = tr.layer_metrics(spans)
    setup_m = tr.layer_metrics(setup_tracer)
    metrics["setup.iso_search_s"] = setup_m["groups.iso_search_s"]
    metrics["setup.subgroup_s"] = setup_m["groups.subgroup_s"]
    metrics["trace_overhead"] = (traced.run_s / base.run_s, "ratio")
    notes = [f"untraced run_s {base.run_s:.4f}, traced run_s "
             f"{traced.run_s:.4f}, counting run_s {counted.run_s:.4f}"]
    for op in SCALAR_OPS:
        metrics[f"scalars.{op}_calls"] = (counter.calls(op), "count")
    for op in TIMED_OPS:
        mean, table = counter.per_op_ns(op)
        metrics[f"scalars.{op}_ns"] = (mean, "ns")
        for key, calls, ns in table:
            notes.append(f"scalars.{op} key {key}: {calls} calls, "
                         f"{ns:.1f} ns per call")
    for metric, (stated, _) in tr.ROADMAP_ROWS.items():
        value, unit = metrics[metric]
        if value:                   # rows this workload does not reach are 0
            notes.append(f"roadmap {metric}: measured {value:.6g} {unit}, "
                         f"ROADMAP states {stated}")

    failures = []
    if name == "session":
        for route in tr.ROUTES:
            if not metrics[f"algebra.invert.{route}_calls"][0]:
                failures.append(f"self-check: no {route} inversion in the "
                                f"traced session pass")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    spans.dump(path)
    notes.append(f"spans written to {path.relative_to(ROOT)} "
                 f"({len(spans.records)} spans)")
    return [base, traced, counted], metrics, notes, failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"perfbench: no twistlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        t0 = clock()
        import_layers()
        work = make_workload(args.workload, args.seed)
        took = clock() - t0
        work.close()
        print(json.dumps({"setup_s": took}))
        return 0

    print(provenance())
    if args.trace:
        passes, metrics, notes, failures = run_traced(args.workload,
                                                      args.seed)
    else:
        passes, metrics, notes = run_timed(args.workload, args.seed,
                                           args.seconds)
        failures = []
    attempted = sum(len(p.items) for p in passes)
    failed = sum(1 for p in passes for _, _, ok in p.items if not ok)
    failures = [f for p in passes for f in p.failures] + failures
    for line in notes:
        print(line)
    for f in failures[:20]:
        print(f"FAIL {f}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
          f"items)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
