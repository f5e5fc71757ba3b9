"""orbitcat benchmark: time to certified answers, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35   # one process per workload

``--trace 0`` sets the workload up three to ten times, then runs the jobs
with tracing off for ``--seconds``: one pass in job order, a second pass
longest job first, then the short jobs most often.  It reports the
end-to-end metrics: a job's latency is the median of its samples,
``job_p50_ms`` and ``job_p90_ms`` are Harrell-Davis quantiles
(``quantile.py``) and ``setup_s`` is the median set-up time.  Every time is
scaled to a fixed host speed by the probe of ``hostspeed.py`` (seconds at
the reference speed).  ``--trace 1`` runs every job once untraced, then
installs the tracer, sets the workload up again and runs every job once
traced; it checks that both passes give the same results and reports the
per-layer metrics of ``layers.py``.

Every job's result is checked (see ``workloads.py``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit and sample count, and the run's metadata and job table are written to
``.perfbench/`` in the checkout.  Without ``src/orbitcat`` in the checkout
the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("engine", "orbit", "ladder")
# Set up at least SETUP_REPEATS_MIN times, and more (up to the max) while
# the set-ups so far took less than SETUP_SECONDS; setup_s is the median.
SETUP_REPEATS_MIN = 3
SETUP_REPEATS_MAX = 10
SETUP_SECONDS = 2.0
# One BLAS thread: the float64 matmuls inside vmatmul are small, and a
# single thread keeps timings steady on a shared machine.  numpy is imported
# only inside functions, after main() has set these variables.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed but left out of the result line, so no bound applies: the short
# jobs that set the median moved by up to a third between runs of the same
# code on the shared 2-core machine this benchmark was sized on.
PRINTED_ONLY = ("job_p50_ms",)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_orbitcat():
    """Import orbitcat from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "orbitcat", "__init__.py")):
        sys.stderr.write(f"perfbench: no orbitcat sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import orbitcat

    if os.path.dirname(os.path.dirname(os.path.abspath(orbitcat.__file__))) != SRC:
        sys.stderr.write(f"perfbench: orbitcat was imported from {orbitcat.__file__}\n")
        sys.exit(2)


def source_digest() -> str:
    """SHA-256 over the orbitcat sources being measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "orbitcat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def metadata(args) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def run_jobs(jobs, tracer=None) -> list:
    """Run the jobs once each, in order; one row per job, with its start
    and end time."""
    from tracer import SETUP_JOB

    rows = []
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = j
        t0 = time.perf_counter()
        try:
            result = job.run()
            t1 = time.perf_counter()
            status, fingerprint = job.check(result)
        except Exception as ex:  # a job that raises is a failed job; the run goes on
            t1 = time.perf_counter()
            status, fingerprint = f"raised {type(ex).__name__}: {ex}", None
        finally:
            if tracer is not None:
                tracer.current_job = SETUP_JOB
        rows.append({"job": job.name, "latency_s": t1 - t0, "t0": t0, "t1": t1,
                     "status": status, "fingerprint": fingerprint})
    return rows


def is_failure(status: str) -> bool:
    """A failure the benchmark did not expect; known failures are pinned."""
    return status not in ("ok", "known_failure", "fixed")


def fail_ratio(rows) -> float:
    """Jobs with a failed sample, known failures included, over jobs attempted."""
    failing = {r["job"] for r in rows if r["status"] not in ("ok", "fixed")}
    return len(failing) / len({r["job"] for r in rows})


def measure(args, setup, workdir):
    """Tracing off: end-to-end metrics, in seconds at the reference host
    speed of ``hostspeed.py``."""
    import numpy as np
    from hostspeed import HostClock
    from quantile import hd_quantile

    clock = HostClock()
    clock.start()
    try:
        setup_spans = []
        while (len(setup_spans) < SETUP_REPEATS_MIN
               or (len(setup_spans) < SETUP_REPEATS_MAX
                   and sum(t1 - t0 for t0, t1 in setup_spans) < SETUP_SECONDS)):
            jobs = None
            gc.collect()
            t0 = time.perf_counter()
            jobs = setup(args.seed, workdir)
            setup_spans.append((t0, time.perf_counter()))
        gc.collect()
        t_start = time.perf_counter()
        # A pass in job order, then a second pass, longest job first (the
        # long jobs set wall_s, and job_p90_ms on the short job lists); then
        # the fewest samples times sqrt(latency) first, so the short and
        # middling jobs, which set job_p90_ms on engine, get more.  A job
        # that would not end within --seconds is dropped.
        queue = [(0, i, i) for i in range(len(jobs))]
        rows, best, samples = [], {}, {}
        while queue:
            _, _, i = heapq.heappop(queue)
            name = jobs[i].name
            if name in best and time.perf_counter() - t_start + best[name] > args.seconds:
                continue
            row = run_jobs([jobs[i]])[0]
            rows.append(row)
            best[name] = min(best.get(name, row["latency_s"]), row["latency_s"])
            n = samples[name] = samples.get(name, 0) + 1
            key = (1, -best[name]) if n == 1 else (2, n * math.sqrt(best[name]))
            heapq.heappush(queue, key + (i,))
    finally:
        clock.stop()
    for r in rows:
        r["latency_s"], r["ref_s"] = clock.interval(r["t0"], r["t1"])
    setup_ref = [clock.interval(t0, t1) for t0, t1 in setup_spans]
    by_job = {}
    for r in rows:
        by_job.setdefault(r["job"], []).append(r["ref_s"])
    lat = [float(np.median(v)) for v in by_job.values()]
    p90 = hd_quantile(lat, 0.9)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_job = f"{len(lat)} jobs, {len(rows) / len(lat):.1f} samples each on average"
    metrics = {
        "wall_s": (sum(lat), "s", per_job),
        "job_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms", per_job),
        "job_p90_ms": (1e3 * p90, "ms", f"{per_job}; {sum(x > p90 for x in lat)} beyond"),
        "setup_s": (float(np.median([ref for _, ref in setup_ref])), "s",
                    f"median of {len(setup_ref)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }
    raw = {}
    for r in rows:
        raw.setdefault(r["job"], []).append(r["latency_s"])
    extra = {"raw_wall_s": sum(float(np.median(v)) for v in raw.values()),
             "setup_raw_s": [raw_s for raw_s, _ in setup_ref],
             "setup_ref_s": [ref_s for _, ref_s in setup_ref],
             "probe_median_s": float(np.median(clock.durations)),
             "probes": {"start": list(clock.starts), "duration_s": list(clock.durations)}}
    return metrics, rows, extra


def trace(args, setup, workdir, spans_path):
    """Tracing on: per-layer metrics, and a check that tracing changes no result."""
    from layers import layer_metrics, metric_names, zero_metrics
    from tracer import Tracer, span_stats

    jobs = setup(args.seed, workdir)
    gc.collect()
    untraced = run_jobs(jobs)
    tracer = Tracer()
    try:
        bindings = tracer.install("orbitcat")
        jobs = setup(args.seed, workdir)
        gc.collect()
        traced = run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    problems = []
    for a, b in zip(untraced, traced):
        if (a["job"], a["status"], a["fingerprint"]) != (b["job"], b["status"], b["fingerprint"]):
            problems.append(f"tracing changed the result of {a['job']}")
    values = layer_metrics(span_stats(tracer), len(jobs))
    untraced_wall = sum(r["latency_s"] for r in untraced)
    traced_wall = sum(r["latency_s"] for r in traced)
    values["trace_overhead"] = traced_wall / untraced_wall
    values["fail_ratio"] = fail_ratio(traced)
    problems += [f"per-layer metric {m} is zero on {args.workload}"
                 for m in zero_metrics(values, args.workload)]
    tracer.save(spans_path)
    units = {name: unit for name, unit, _ in metric_names()}
    metrics = {name: (values[name], units[name], f"{len(jobs)} traced jobs") for name in units}
    extra = {"bindings": bindings, "spans": len(tracer.span_name), "problems": problems,
             "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    for r in traced:
        r["traced"] = True
    return metrics, untraced + traced, extra


def run_workload(args) -> dict:
    from hostspeed import REFERENCE_PROBE_S
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"{run_id}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"{run_id}-spans.npz")
            metrics, rows, extra = trace(args, WORKLOADS[args.workload], workdir, spans_path)
        else:
            metrics, rows, extra = measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(is_failure(r["status"]) for r in rows)
    known = sorted({r["job"] for r in rows if r["status"] == "known_failure"})
    problems = extra.pop("problems", [])
    problems += [f"job {r['job']} failed: {r['status']}" for r in rows if is_failure(r["status"])]
    record = {"metadata": metadata(args), "metrics": {k: v[0] for k, v in metrics.items()},
              "extra": extra, "problems": problems,
              "jobs": [{k: v for k, v in r.items() if k != "fingerprint"} for r in rows]}
    with open(os.path.join(OUT_DIR, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"nproc {record['metadata']['nproc']}, python {record['metadata']['python']}, "
          f"numpy {record['metadata']['numpy']}, blas threads {BLAS_THREADS}")
    for name, (value, unit, samples) in metrics.items():
        note = "; printed only" if name in PRINTED_ONLY else ""
        print(f"{name:48s} {value:14.6g} {unit:6s} ({samples}{note})")
    if not args.trace:
        print(f"{'fail_ratio':48s} {fail_ratio(rows):14.6g} "
              f"{'ratio':6s} ({len({r['job'] for r in rows})} jobs; {failed} unexpected failures; "
              f"known failures: {', '.join(known) or 'none'})")
        print(f"host speed: median probe {1e3 * extra['probe_median_s']:.3f} ms (reference "
              f"{1e3 * REFERENCE_PROBE_S:.3f} ms); unscaled wall_s {extra['raw_wall_s']:.4g} s")
    by_job = {}
    for r in rows:
        by_job.setdefault(r["job"], []).append(r["latency_s"])
    slowest = sorted(by_job.items(), key=lambda kv: -min(kv[1]))[:5]
    print("slowest jobs (best unscaled sample): "
          + ", ".join(f"{k} {1e3 * min(v):.0f} ms" for k, v in slowest))
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()
                    if k not in PRINTED_ONLY},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process of its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: workload {w} exited with code {proc.returncode}\n")
            sys.exit(proc.returncode)
        res = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_orbitcat()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
