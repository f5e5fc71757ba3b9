"""The three workloads: how each is set up from a seed, its job list, and
how each job's result is checked.  README.md says what each workload covers
and why.

Every workload is a closed loop with one client: the next job starts when
the previous one has finished, because orbitcat is a batch calculator.
Jobs and set-up call orbitcat through module attributes at call time, so
the tracer's bindings see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from orbitcat import algebra, cli, ffield, rep, scenarios


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # result -> (status, fingerprint); status is "ok", "known_failure",
    # "fixed" or a failure reason
    check: Callable[[object], tuple]


def _fresh_fields():
    """``orbitcat.FF`` caches fields for the life of the process; empty the
    cache so every set-up repetition pays for building its fields, as the
    first one does."""
    cache = getattr(ffield, "_FIELD_CACHE", None)
    if cache is not None:
        cache.clear()


# ---------------------------------------------------------------------------
# engine

ENGINE_JOBS = 200
# The multisets are drawn once with this constant seed, so every --seed runs
# the same amount of work; --seed draws each module's base change and the
# job order.  (The cost of a job depends mostly on which indecomposables it
# sums: over seeds 0-2 a freshly drawn job list took 6.5 s to 10.4 s.)
ENGINE_COMPOSITION_SEED = 0


def _decompose_check(expected):
    def check(dec):
        got = dec.signature()
        if got != expected:
            return f"signature {got} != {expected}", got
        if not dec.certified_local:
            return "not certified local", got
        return "ok", got
    return check


def engine_setup(seed: int, workdir: str) -> List[Job]:
    _fresh_fields()
    FF = ffield.FF
    c3 = scenarios.GROUP_TABLES["C3"]
    algebras = [
        ("f7c3", algebra.make_group_algebra(c3, FF(7))),
        ("f3c3", algebra.make_group_algebra(c3, FF(3))),
        ("mat2f5", algebra.make_matrix_algebra(2, FF(5))),
        ("kron_f5", algebra.make_path_algebra(FF(5), 2, [(0, 1), (0, 1)])),
    ]
    pools = [scenarios.indecomposable_pool(A) for _, A in algebras]
    compose = np.random.default_rng(ENGINE_COMPOSITION_SEED)
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(ENGINE_JOBS):
        label, _ = algebras[i % len(algebras)]
        M, signature = scenarios.random_module_from_pool(pools[i % len(algebras)], compose,
                                                         max_dim=12)
        M = rep.random_base_change(M, rng)
        jobs.append(Job(f"{label}-{i:03d}", lambda M=M: rep.decompose(M, certify=True),
                        _decompose_check(signature)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# ladder

# (n, p, e): the regular module of Mat_n over F_{p^e}
LADDER_RUNGS = [(4, 3, 1), (5, 3, 1), (6, 3, 1), (4, 2, 4), (5, 2, 2)]


def ladder_setup(seed: int, workdir: str) -> List[Job]:
    """--seed draws a basis permutation of each regular module.  (A dense
    random base change would change the workload: it makes Mat5/F3 take a
    minute instead of a second.)"""
    _fresh_fields()
    rng = np.random.default_rng(seed)
    jobs = []
    for n, p, e in LADDER_RUNGS:
        A = algebra.make_matrix_algebra(n, ffield.FF(p, e))
        R = rep.regular_module(A)
        perm = rng.permutation(R.dim)
        M = rep.Module(A, [m[perm][:, perm] for m in R.mats], validate=False)
        jobs.append(Job(f"mat{n}_f{p ** e}", lambda M=M: rep.decompose(M, certify=True),
                        _decompose_check([(n, n)])))
    return jobs


# ---------------------------------------------------------------------------
# orbit

C9 = [[(i + j) % 9 for j in range(9)] for i in range(9)]


def _scenario(p, n, alg, action, module):
    return {"schema_version": 1, "field": {"p": p, "n": n}, "algebra": alg,
            "action": action, "module": module, "tasks": ["clifford", "oracle_compare"]}


def _galois(q):
    return {"schema_version": 1, "tasks": ["galois"],
            "galois": {"q": q, "deg_l": 2, "deg_m": 4, "group": "C4",
                       "phi": [0, 1, 2, 3], "H": [0, 2]}}


_C3 = {"type": "group_algebra", "group": "C3"}
_KLEIN = {"type": "group_algebra", "group": "C2xC2"}
_MAT2 = {"type": "matrix_algebra", "n": 2}
_MAT3 = {"type": "matrix_algebra", "n": 3}
_KRON2 = {"type": "path_algebra", "vertices": 2, "arrows": [[0, 1], [0, 1]]}
_KRON3 = {"type": "path_algebra", "vertices": 2, "arrows": [[0, 1], [0, 1], [0, 1]]}
_INVERSION = {"group": "C2", "kind": "inversion"}
_KLEIN_CYCLE = {"group": "C3", "kind": "basis_permutation", "perm": [0, 2, 3, 1]}
_SWAP = {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]}
_ARROW_SWAP = {"group": "C2", "kind": "basis_permutation", "perm": [0, 1, 3, 2]}
_ARROW_CYCLE = {"group": "C3", "kind": "basis_permutation", "perm": [0, 1, 3, 4, 2]}


def _simple(i):
    return {"kind": "simple", "index": i}


def _summand(i):
    return {"kind": "regular_summand", "index": i}


ORBIT_SCENARIOS = {
    "f7c3_trivial": _scenario(7, 1, _C3, _INVERSION, {"kind": "trivial"}),
    "f7c3_simple1": _scenario(7, 1, _C3, _INVERSION, _simple(1)),
    "f3c3_trivial": _scenario(3, 1, _C3, _INVERSION, {"kind": "trivial"}),
    "f3c3_regular": _scenario(3, 1, _C3, _INVERSION, {"kind": "regular"}),
    "f3c9_trivial": _scenario(3, 1, {"type": "group_algebra", "group": C9}, _INVERSION,
                              {"kind": "trivial"}),
    "f3c9_regular": _scenario(3, 1, {"type": "group_algebra", "group": C9}, _INVERSION,
                              {"kind": "regular"}),
    "f2klein_trivial": _scenario(2, 1, _KLEIN, _KLEIN_CYCLE, {"kind": "trivial"}),
    "f2klein_regular": _scenario(2, 1, _KLEIN, _KLEIN_CYCLE, {"kind": "regular"}),
    "f5klein_simple0": _scenario(5, 1, _KLEIN, _KLEIN_CYCLE, _simple(0)),
    "f5klein_simple1": _scenario(5, 1, _KLEIN, _KLEIN_CYCLE, _simple(1)),
    "mat2f5_c2": _scenario(5, 1, _MAT2, _SWAP, _simple(0)),
    "mat2f5_c4": _scenario(5, 1, _MAT2, {"group": "C4", "kind": "conjugation",
                                         "matrix": [[1, 0], [0, 2]]}, _simple(0)),
    "mat3f7_c3": _scenario(7, 1, _MAT3, {"group": "C3", "kind": "conjugation",
                                         "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 4]]},
                           _simple(0)),
    "kron2_simple0": _scenario(5, 1, _KRON2, _ARROW_SWAP, _simple(0)),
    "kron2_simple1": _scenario(5, 1, _KRON2, _ARROW_SWAP, _simple(1)),
    "kron2_proj0": _scenario(5, 1, _KRON2, _ARROW_SWAP, _summand(0)),
    "kron2_proj1": _scenario(5, 1, _KRON2, _ARROW_SWAP, _summand(1)),
    "kron3_simple0": _scenario(7, 1, _KRON3, _ARROW_CYCLE, _simple(0)),
    "kron3_proj1": _scenario(7, 1, _KRON3, _ARROW_CYCLE, _summand(1)),
    "mat2f25_c2": _scenario(5, 2, _MAT2, _SWAP, _simple(0)),
    # F4 codes: 2 is a primitive cube root of unity w, 3 is w^2
    "mat3f4_c3": _scenario(2, 2, _MAT3, {"group": "C3", "kind": "conjugation",
                                         "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
                           _simple(0)),
    "galois_q3": _galois(3),
    "galois_q5": _galois(5),
    "galois_q2": _galois(2),
    "laws": {"schema_version": 1, "tasks": ["laws"], "seed": 0},
}

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _orbit_fields():
    """Every field the scenarios use, Galois towers included."""
    fields = set()
    for doc in ORBIT_SCENARIOS.values():
        if "field" in doc:
            fields.add((doc["field"]["p"], doc["field"]["n"]))
        if "galois" in doc:  # the towers here are over a prime q
            g = doc["galois"]
            fields.update({(g["q"], 1), (g["q"], g["deg_l"]), (g["q"], g["deg_m"])})
    return sorted(fields)


def run_cli(path: str):
    """``orbitcat run <path> --format json`` in-process: (exit code, report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", path, "--format", "json"])
    return code, out.getvalue()


def _orbit_check(expected):
    def check(result):
        code, report = result
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        fingerprint = (code, digest)
        if code == expected["exit"] and digest == expected["sha256"]:
            return ("known_failure" if "known_failure" in expected else "ok"), fingerprint
        if "known_failure" in expected and code == 0 and json.loads(report)["pass"]:
            return "fixed", fingerprint
        return f"exit {code}, report sha256 {digest[:12]} (expected exit {expected['exit']}, " \
               f"{expected['sha256'][:12]})", fingerprint
    return check


def orbit_setup(seed: int, workdir: str) -> List[Job]:
    """Builds the scenario fields and writes the scenario files; --seed draws
    the job order (the reports are pinned by digest, so the documents are
    fixed)."""
    _fresh_fields()
    for p, n in _orbit_fields():
        ffield.FF(p, n)
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["orbit"]
    scen_dir = os.path.join(workdir, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    jobs = []
    for name, doc in ORBIT_SCENARIOS.items():
        cli.load_scenario(doc)
        path = os.path.join(scen_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        jobs.append(Job(name, lambda path=path: run_cli(path), _orbit_check(expected[name])))
    rng = np.random.default_rng(seed)
    return [jobs[i] for i in rng.permutation(len(jobs))]


# workload -> set-up function (seed, work directory) -> job list
WORKLOADS = {
    "engine": engine_setup,
    "orbit": orbit_setup,
    "ladder": ladder_setup,
}

