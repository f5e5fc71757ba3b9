"""Declarative scenario runner.

A scenario is a JSON document selecting a ground field, an algebra
builder, a group action, a module, and a task list; the runner executes
every task (failures are collected, not short-circuited) and emits a
deterministic report in JSON or text form.  Exit codes: 0 all checks
passed, 1 at least one check failed, 2 parse/validation/usage error.

Reports are byte-stable for a fixed scenario: orderings are fixed
everywhere and any sampling uses the seed recorded in the report.  Timing
is only included when requested, since wall-clock numbers are inherently
unstable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np

from .checks import run_selftest
from .clifford import CliffordViolation, clifford_run, skewfield_check, trivial_inertia_check
from .oracle import (
    GaloisScenario,
    SkewContext,
    galois_build,
    galois_monad_group_check,
    galois_rank_check,
    oracle_compare,
)
from .scenarios import (
    _checked_int,
    _checked_ints,
    build_action,
    build_algebra,
    build_field,
    build_module,
    group_table,
)

SCHEMA_VERSION = 1

KNOWN_TASKS = ("clifford", "laws", "oracle_compare", "galois",
               "trivial_inertia", "skewfield")


class ScenarioError(ValueError):
    """Scenario parsing or validation failure (exit code 2)."""


def load_scenario(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("tasks must be a nonempty list")
    for t in tasks:
        if t not in KNOWN_TASKS:
            raise ScenarioError(f"unknown task {t!r}; known: {KNOWN_TASKS}")
    needs_module = {"clifford", "oracle_compare", "trivial_inertia", "skewfield"}
    if needs_module & set(tasks):
        for key in ("field", "algebra", "action", "module"):
            if key not in doc:
                raise ScenarioError(f"missing scenario section {key!r}")
    if "galois" in tasks and "galois" not in doc:
        raise ScenarioError("the galois task needs a 'galois' section")
    return doc


def _read_section(doc: dict, section: str, build):
    """build(doc[section]); a parse error is a ScenarioError, which names the
    section when it is not an object, lacks a key or has the wrong type."""
    spec = doc[section]
    if not isinstance(spec, dict):
        raise ScenarioError(f"scenario section {section!r} must be an object, "
                            f"not {type(spec).__name__}")
    try:
        return build(spec)
    except KeyError as ex:
        raise ScenarioError(f"scenario section {section!r} has no key {ex.args[0]!r}") from ex
    except TypeError as ex:
        raise ScenarioError(f"scenario section {section!r}: {ex}") from ex
    except (ValueError, IndexError) as ex:
        raise ScenarioError(str(ex)) from ex


def _build_context(doc: dict):
    field = _read_section(doc, "field", build_field)
    algebra = _read_section(doc, "algebra", lambda spec: build_algebra(field, spec))
    action = _read_section(doc, "action", lambda spec: build_action(algebra, spec))
    module = _read_section(doc, "module", lambda spec: build_module(algebra, spec))
    return field, algebra, action, module


def _galois_scenario(g: dict) -> GaloisScenario:
    deg_m = _checked_int(g["deg_m"], "galois deg_m", 1)
    table = group_table(g["group"], "galois group")
    return GaloisScenario(
        q=_checked_int(g["q"], "galois q", 2), deg_l=_checked_int(g["deg_l"], "galois deg_l", 1),
        deg_m=deg_m, table=table, phi=_checked_ints(g["phi"], "galois phi", 0, deg_m, "deg_m"),
        H=_checked_ints(g["H"], "galois H", 0, len(table), "the group order"))


def _clifford_report(shared: dict):
    """The scenario's clifford_run report; the clifford and oracle_compare
    tasks of one scenario share one run, and an error it raised is raised
    again for each of them."""
    if "clifford" not in shared:
        _, _, action, module = shared["context"]
        try:
            shared["clifford"] = clifford_run(action, module)
        except (CliffordViolation, ValueError) as ex:
            shared["clifford"] = ex
    if isinstance(shared["clifford"], Exception):
        raise shared["clifford"]
    return shared["clifford"]


def _clifford_details(rep) -> dict:
    """The clifford task's details: the report and its certificates in words."""
    det = rep.to_dict()
    det["orbit End dimension"] = rep.orbit_end_dim
    det["certificates"] = [
        f"summand {s.index}: local: {s.local} "
        f"(radical dim {s.corner_radical_dim} of corner dim {s.corner_dim})"
        for s in rep.stage2
    ]
    det["sum_check"] = (
        f"sum of n_j weighted by multiplicity = "
        f"{sum(s.n_copies * s.multiplicity for s in rep.stage1)} "
        f"= |inertia| = {len(rep.inertia_subgroup)}"
    )
    return det


def _outcome(out: dict, compute, verdict) -> dict:
    """out with compute()'s details and verdict(details) as its pass flag;
    a CliffordViolation or ValueError fails the task, its text the error."""
    try:
        details = compute()
    except (CliffordViolation, ValueError) as ex:
        out["pass"], out["details"] = False, {"error": str(ex)}
    else:
        out["pass"], out["details"] = bool(verdict(details)), details
    return out


def run_task(task: str, doc: dict, seed: int, shared: dict) -> dict:
    """Run one task; ``shared`` carries what the tasks of one scenario reuse."""
    out = {"task": task}
    if task == "galois":
        tower = _read_section(doc, "galois", lambda spec: galois_build(_galois_scenario(spec)))
        rank_out = galois_rank_check(tower)
        monad_out = galois_monad_group_check(tower)
        out["pass"] = bool(rank_out["ok"] and monad_out["ok"])
        out["details"] = {
            "rank": rank_out,
            "monad": {k: v for k, v in monad_out.items()},
        }
        return out
    if task == "laws":
        from .checks import check_adjunction_laws

        r = check_adjunction_laws(seed=seed)
        out["pass"] = r.passed
        out["details"] = {"summary": r.details}
        return out
    if "context" not in shared:
        shared["context"] = _build_context(doc)
    _, _, action, module = shared["context"]
    if task == "clifford":
        return _outcome(out, lambda: _clifford_details(_clifford_report(shared)),
                        lambda d: d["sum_n_equals_inertia"] and all(s["local"] for s in d["stage2"]))
    if task == "oracle_compare":
        return _outcome(out, lambda: oracle_compare(_clifford_report(shared), SkewContext(action)),
                        lambda d: d["match"])
    if task == "trivial_inertia":
        return _outcome(out, lambda: trivial_inertia_check(action, module), lambda d: d["ok"])
    if task == "skewfield":
        return _outcome(out, lambda: skewfield_check(action, module), lambda d: d["ok"])
    raise ScenarioError(f"unknown task {task!r}")


def run(path: str, seed: int = 0, with_timing: bool = False) -> dict:
    """Execute a scenario file and return the report document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ScenarioError(f"cannot read scenario: {ex}") from ex
    doc = load_scenario(doc)
    try:
        seed = _checked_int(doc.get("seed", seed), "seed", 0)
    except ValueError as ex:
        raise ScenarioError(str(ex)) from ex
    t0 = time.monotonic()
    shared: dict = {}
    results = [run_task(t, doc, seed, shared) for t in doc["tasks"]]
    elapsed = int((time.monotonic() - t0) * 1000)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": doc,
        "seed": seed,
        "results": results,
        "pass": all(r["pass"] for r in results),
        "timing_ms": elapsed if with_timing else None,
    }


def selftest(seed: int = 0, with_timing: bool = False) -> dict:
    """Run the built-in corpus and return its report document."""
    try:
        seed = _checked_int(seed, "seed", 0)
    except ValueError as ex:
        raise ScenarioError(str(ex)) from ex
    t0 = time.monotonic()
    checks = run_selftest(seed=seed)
    elapsed = int((time.monotonic() - t0) * 1000)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": {"builtin": "selftest", "seed": seed},
        "seed": seed,
        "results": [
            {"task": c.name, "pass": c.passed, "details": {"summary": c.details}}
            for c in checks
        ],
        "pass": all(c.passed for c in checks),
        "timing_ms": elapsed if with_timing else None,
    }


def list_builders() -> str:
    lines = [
        "algebra builders:",
        "  group_algebra        {group: C1|C2|C3|C4|C2xC2|S3 or explicit table}",
        "  matrix_algebra       {n}",
        "  path_algebra         {vertices, arrows: [[src, tgt], ...], relations}",
        "  skew_group_algebra   {base: <algebra spec>, action: <action spec>}",
        "  twisted_group_ring   {q, deg_m, group, phi}: skew group algebra of the",
        "                       Frobenius action on F_{q^deg_m}; q = the field order",
        "action kinds:",
        "  trivial | inversion | conjugation (matrix/matrices)",
        "  basis_permutation (perm/perms) | explicit (matrices)",
        "module kinds:",
        "  trivial | regular | simple {index} | regular_summand {index}",
        "  explicit {matrices}",
        "tasks:",
        "  " + " | ".join(KNOWN_TASKS),
    ]
    return "\n".join(lines)


def _render_text(report: dict) -> str:
    lines = []
    lines.append(f"report schema {report['schema_version']}, seed {report['seed']}")
    for r in report["results"]:
        mark = "PASS" if r["pass"] else "FAIL"
        lines.append(f"[{mark}] {r['task']}")
        details = r.get("details", {})
        if isinstance(details, dict):
            for key in sorted(details):
                val = details[key]
                if isinstance(val, (list, dict)):
                    val = json.dumps(val, sort_keys=True, default=_json_default)
                lines.append(f"    {key}: {val}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    if report.get("timing_ms") is not None:
        lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(report: dict, fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    else:
        text = _render_text(report)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitcat",
        description="exact orbit-category scenario runner over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON document")
    p_run.add_argument("--output", help="write the report to this path")
    p_run.add_argument("--format", choices=("json", "text"), default="text")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")

    p_self = sub.add_parser("selftest", help="run the built-in corpus")
    p_self.add_argument("--output", help="write the report to this path")
    p_self.add_argument("--format", choices=("json", "text"), default="text")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--timing", action="store_true")

    sub.add_parser("list-builders", help="print the available builders")

    args = parser.parse_args(argv)
    if args.command == "list-builders":
        sys.stdout.write(list_builders() + "\n")
        return 0
    try:
        if args.command == "run":
            report = run(args.scenario, seed=args.seed, with_timing=args.timing)
        else:
            report = selftest(seed=args.seed, with_timing=args.timing)
    except ScenarioError as ex:
        sys.stderr.write(json.dumps({"error": str(ex)}) + "\n")
        return 2
    _emit(report, args.format, args.output)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
