"""The per-layer metrics: which spans they read and what they should move.

Each row of ``LAYER_TABLE`` names spans, the statistics reported for them,
the end-to-end metric a change to that layer should move, and the workloads
on which it should move.  Every metric of a row must be non-zero on each
workload in ``nonzero_on`` (checked on every traced run), so a binding the
tracer missed fails the run instead of under-counting.  ``nonzero_on`` is the
row's ``on`` list except where a workload never calls the function at all;
those exceptions are noted in the row.

Metric names are ``<span>.<stat>``; ``setup.`` in front means the spans were
recorded while the workload was being set up, otherwise only spans under a
job count.
"""

from __future__ import annotations

# stat -> (unit, better)
STATS = {
    "calls": ("count", "lower"),
    "top_calls": ("count", "lower"),
    "calls_per_job": ("count", "lower"),
    "incl_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "mults": ("count", "lower"),
    "cells": ("count", "lower"),
    "max_rows": ("count", "lower"),
    "rows": ("count", "lower"),
    "matrices": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
}

ALL = ("engine", "orbit", "ladder")

LAYER_TABLE = [
    {"spans": ["algebra.radical"],
     "stats": ["calls", "top_calls", "calls_per_job", "incl_s", "self_s"],
     "moves": "wall_s, job_p50_ms, job_p90_ms", "on": "engine (orbit less; ladder about no change)",
     "nonzero_on": ALL},
    {"spans": ["algebra.primitive_orthogonal_idempotents", "algebra.is_local"],
     "stats": ["incl_s"],
     "moves": "wall_s, job_p50_ms, job_p90_ms", "on": "engine (orbit less; ladder about no change)",
     "nonzero_on": ALL},
    {"spans": ["poly.poly_factor"], "stats": ["calls", "self_s"],
     "moves": "wall_s, job_p50_ms, job_p90_ms", "on": "engine (orbit less; ladder about no change)",
     "nonzero_on": ("engine", "orbit")},
    {"spans": ["linalg.rref"], "stats": ["calls", "self_s", "cells", "max_rows"],
     "moves": "wall_s, peak_rss_mb", "on": "ladder (engine: only the call count)",
     "nonzero_on": ALL},
    {"spans": ["rep.hom_space"], "stats": ["calls", "self_s", "rows"],
     "moves": "wall_s, peak_rss_mb", "on": "ladder", "nonzero_on": ALL},
    {"spans": ["linalg.kernel_basis"], "stats": ["incl_s"],
     "moves": "wall_s, peak_rss_mb", "on": "ladder", "nonzero_on": ALL},
    {"spans": ["linalg.charpoly_batched"], "stats": ["calls", "self_s", "matrices"],
     "moves": "wall_s, job_p90_ms", "on": "ladder, and the modular tail of engine",
     "nonzero_on": ("engine", "ladder")},
    {"spans": ["algebra.Algebra.validate"], "stats": ["calls", "self_s"],
     "moves": "wall_s", "on": "orbit (validation inside the jobs)", "nonzero_on": ("orbit",)},
    {"spans": ["setup.algebra.Algebra.validate"], "stats": ["calls", "self_s"],
     "moves": "setup_s", "on": "ladder", "nonzero_on": ("engine", "ladder")},
    {"spans": ["setup.algebra.radical"], "stats": ["calls"],
     "moves": "setup_s", "on": "engine (building the module pools)", "nonzero_on": ("engine",)},
    {"spans": ["ffield.vmatmul.prime"], "stats": ["calls", "self_s", "mults"],
     "moves": "wall_s", "on": "engine", "nonzero_on": ALL},
    {"spans": ["ffield.vmatmul.ext"], "stats": ["calls", "self_s", "mults"],
     "moves": "wall_s", "on": "orbit, ladder (engine has none)", "nonzero_on": ("orbit", "ladder")},
    {"spans": ["rep.decompose", "rep.end_algebra"], "stats": ["incl_s"],
     "moves": "wall_s", "on": "engine, orbit", "nonzero_on": ALL},
    {"spans": ["rep.is_isomorphic"], "stats": ["calls", "hit_ratio"],
     "moves": "wall_s",
     "on": "orbit (decompose groups summands with its own basis scan, so engine makes no calls)",
     "nonzero_on": ("orbit",)},
    {"spans": ["orbit.orbit_hom", "orbit.orbit_compose", "orbit.functor_T"],
     "stats": ["calls", "self_s"],
     "moves": "wall_s, job_p50_ms", "on": "orbit only", "nonzero_on": ("orbit",)},
    {"spans": ["karoubi.kar_end_algebra", "karoubi.kar_decompose"], "stats": ["incl_s"],
     "moves": "wall_s, job_p50_ms", "on": "orbit only", "nonzero_on": ("orbit",)},
    {"spans": ["karoubi.kar_is_isomorphic"], "stats": ["calls", "hit_ratio"],
     "moves": "wall_s, job_p50_ms", "on": "orbit only", "nonzero_on": ("orbit",)},
    {"spans": ["clifford.clifford_run", "clifford.inertia"], "stats": ["calls", "incl_s"],
     "moves": "wall_s, job_p50_ms", "on": "orbit only", "nonzero_on": ("orbit",)},
    {"spans": ["oracle.induce_skew", "oracle.oracle_compare", "oracle.galois_rank_check",
               "oracle.galois_monad_group_check"], "stats": ["incl_s"],
     "moves": "wall_s", "on": "orbit only", "nonzero_on": ("orbit",)},
    {"spans": ["cli.run_task"], "stats": ["calls", "incl_s"],
     "moves": "wall_s", "on": "orbit only", "nonzero_on": ("orbit",)},
]

# health figures of the traced run, not tied to one layer
RUN_METRICS = {
    "trace_overhead": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}


def metric_names():
    """(name, unit, better) of every per-layer metric, in table order."""
    out = []
    for row in LAYER_TABLE:
        for span in row["spans"]:
            for stat in row["stats"]:
                out.append((f"{span}.{stat}",) + STATS[stat])
    for name, (unit, better) in RUN_METRICS.items():
        out.append((name, unit, better))
    return out


def _value(stats: dict, scope: str, span: str, stat: str, n_jobs: int) -> float:
    st = stats.get((scope, span))
    if st is None:
        return 0
    if stat in ("calls", "top_calls", "incl_s", "self_s"):
        return st[stat]
    if stat == "calls_per_job":
        return st["calls"] / n_jobs
    if stat in ("mults", "cells", "matrices"):
        return st["work"]
    if stat in ("max_rows", "rows"):
        return st["max_size"]
    if stat == "hit_ratio":
        return st["mean_work"]
    raise KeyError(stat)


def layer_metrics(stats: dict, n_jobs: int) -> dict:
    """Per-layer metric values from ``tracer.span_stats`` output."""
    out = {}
    for row in LAYER_TABLE:
        for span in row["spans"]:
            scope, name = ("setup", span[6:]) if span.startswith("setup.") else ("job", span)
            for stat in row["stats"]:
                out[f"{span}.{stat}"] = _value(stats, scope, name, stat, n_jobs)
    return out


def zero_metrics(values: dict, workload: str) -> list:
    """Metrics the table requires to be non-zero on ``workload`` that are zero."""
    missing = []
    for row in LAYER_TABLE:
        if workload not in row["nonzero_on"]:
            continue
        for span in row["spans"]:
            for stat in row["stats"]:
                # a ratio can be zero in earnest; its row's call count is checked
                if stat != "hit_ratio" and not values[f"{span}.{stat}"]:
                    missing.append(f"{span}.{stat}")
    return missing
