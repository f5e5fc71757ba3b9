"""Golden reports: the SHA-256 of fixed CLI reports is pinned.

The digests guard refactors of the arithmetic and the runner: a change
that moves a single byte of the selftest report or of one of the scenario
reports below fails here.  Each module scenario runs the ``clifford`` and
``oracle_compare`` tasks in both orders, so a report shared between the
two tasks cannot leak into the other one's details; the single-task
scenarios pin the ``trivial_inertia`` and ``skewfield`` reports, a failing
one included.
"""

import hashlib
import json

import pytest

from orbitcat.cli import main

_MAT2 = {"type": "matrix_algebra", "n": 2}
_SWAP = {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]}
_C3 = {"type": "group_algebra", "group": "C3"}
_INVERSION = {"group": "C2", "kind": "inversion"}
# S3 permuting the outer vertices 1, 2, 3 of the star quiver 1 -> 0 <- 2, 3 -> 0
_STAR = {"type": "path_algebra", "vertices": 4, "arrows": [[1, 0], [2, 0], [3, 0]]}
_STAR_S3 = {"group": "S3", "kind": "basis_permutation", "perms": [
    [0, 1, 2, 3, 4, 5, 6], [0, 2, 3, 1, 5, 6, 4], [0, 3, 1, 2, 6, 4, 5],
    [0, 1, 3, 2, 4, 6, 5], [0, 3, 2, 1, 6, 5, 4], [0, 2, 1, 3, 5, 4, 6]]}
# the 4-cycle quiver 0 -> 1 -> 2 -> 3 -> 0 with radical square zero, rotated
# by C4 (vertices, then arrows); a projective has Hom(M, gM) of dimensions
# 1, 0, 0, 1 by g: nonzero outside its trivial inertia, and not symmetric in g
_CYCLE = {"type": "path_algebra", "vertices": 4, "arrows": [[0, 1], [1, 2], [2, 3], [3, 0]],
          "relations": [[0, 1], [1, 2], [2, 3], [3, 0]]}
_ROTATION = {"group": "C4", "kind": "basis_permutation", "perm": [1, 2, 3, 0, 5, 6, 7, 4]}

SCENARIOS = {
    # prime field
    "mat2_f5_c2": ({"p": 5, "n": 1}, _MAT2, _SWAP, {"kind": "simple", "index": 0}),
    # extension field with lookup tables
    "mat2_f25_c2": ({"p": 5, "n": 2}, _MAT2, _SWAP, {"kind": "simple", "index": 0}),
    # modular algebra, coprime action: 3 divides |C3|, not |C2|
    "f3c3_regular": ({"p": 3, "n": 1}, _C3, _INVERSION, {"kind": "regular"}),
    # modular action: 2 divides |C2|, and the oracle still compares
    "f2c3_trivial": ({"p": 2, "n": 1}, _C3, _INVERSION, {"kind": "trivial"}),
    # proper inertia C2 < S3 on an outer simple: stage 2 over the whole group,
    # with one class (F2) and with two (F5)
    "star_f2_s3": ({"p": 2, "n": 1}, _STAR, _STAR_S3, {"kind": "simple", "index": 0}),
    "star_f5_s3": ({"p": 5, "n": 1}, _STAR, _STAR_S3, {"kind": "simple", "index": 0}),
    # trivial inertia with a nonzero hom outside it
    "cycle_f5_c4": ({"p": 5, "n": 1}, _CYCLE, _ROTATION,
                    {"kind": "regular_summand", "index": 0}),
}

# name -> (scenario, task, exit code): a nontrivial character of F7C3 under
# inversion passes both checks, and the Mat2/F5 simple, fixed by the swap,
# fails the trivial-inertia one
TASK_SCENARIOS = {
    "f7c3_chi/trivial_inertia":
        (({"p": 7, "n": 1}, _C3, _INVERSION, {"kind": "simple", "index": 1}),
         "trivial_inertia", 0),
    "f7c3_chi/skewfield":
        (({"p": 7, "n": 1}, _C3, _INVERSION, {"kind": "simple", "index": 1}), "skewfield", 0),
    "mat2_f5_c2/trivial_inertia": (SCENARIOS["mat2_f5_c2"], "trivial_inertia", 1),
}

GALOIS_Q3 = {
    "schema_version": 1,
    "tasks": ["galois"],
    "galois": {"q": 3, "deg_l": 2, "deg_m": 4, "group": "C4",
               "phi": [0, 1, 2, 3], "H": [0, 2]},
}

ORDERS = {
    "co": ["clifford", "oracle_compare"],
    "oc": ["oracle_compare", "clifford"],
}

GOLDEN = {
    "selftest":
        "63c8bc9660cf627d20b2d6f96a02776d0810314ee659ed03a9fefa00f4c56ff9",
    "mat2_f5_c2/co":
        "61f4420d0de6bfbbb12bcff9b2db2ce6acc0a1cfeff99b25a59bc7b5a78d2b32",
    "mat2_f5_c2/oc":
        "36be8091fcec2eb499a29b402e9b5f2a9d75bf2ce4b95d35fefbb22f697a8b6e",
    "mat2_f25_c2/co":
        "c97eca3de5a421dfa026791392a00aa2882b49db02440f5b244a40ae2dafdad2",
    "mat2_f25_c2/oc":
        "576f602c7f7d5c5bcbae52850b8096b7368d938f378b7b6410d00add1a073c83",
    "f3c3_regular/co":
        "c50952b5add479184e2194fc22dbe5186a4f22544033f888a2056957b8f4d4d7",
    "f3c3_regular/oc":
        "c8760d0af86ce68688d66ed8c603e7d55e89812be5dc1b55ce05730d9894563b",
    "f2c3_trivial/co":
        "2e1be0673e886f74f37b4d77cb8f39d3c54fa9011218e40c5e6b054d30065e60",
    "f2c3_trivial/oc":
        "4be073cd43e403ebe96ef425e085343780210589e9e0898074b1dea1eb7c56f1",
    "star_f2_s3/co":
        "7d92425f58a7fbd25bed94e81feb5bb96509aa6e4c5b29bd2dd52c00c4ba18ad",
    "star_f2_s3/oc":
        "6cb755c8d49af92bcde9dc87176a8861c4de14093636627e3fe78d4d4fb0be37",
    "star_f5_s3/co":
        "25885c469b958e0c8f8fe08dac54fd12d23c5d3fe6ebdf6f5ccb95259b7c730b",
    "star_f5_s3/oc":
        "d1fa84f1af1caef95a684efe2572fb161abd12b6f5225b7ee7d85fa10db66327",
    "cycle_f5_c4/co":
        "914db37bee6a864d634c20931aff100262483ea11d184e54708f3b813f49b9c4",
    "cycle_f5_c4/oc":
        "0544c7ee4cc28430122fe9781f386f1c03e73e17b1acf19dc38a05de36e54a74",
    "f7c3_chi/trivial_inertia":
        "8498a9665fabcc6f8d5b0879dc1cdacd6c637609c47d7a10267ba50c85e83003",
    "f7c3_chi/skewfield":
        "2b43cfc86ec1fbc26595b59cf335d9e4a099c9697174d9be161fe50d0e15798a",
    "mat2_f5_c2/trivial_inertia":
        "634b98010be075c1cb0da04aab7859b25ea3c1ee56e275fab38f20639d74fbf2",
    "galois_q3":
        "9457419c951937bbac622ab76d2c6b8d2a4156edbd7348b640194f9ce2765dc6",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _module_doc(scenario, tasks):
    field, alg, action, module = scenario
    return {"schema_version": 1, "field": field, "algebra": alg, "action": action,
            "module": module, "tasks": tasks}


def _run_doc(tmp_path, doc):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["run", str(scen), "--format", "json", "--output", str(out)])
    return code, _digest(out)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_scenario_report_digest(tmp_path, name, order):
    code, digest = _run_doc(tmp_path, _module_doc(SCENARIOS[name], ORDERS[order]))
    assert code == 0
    assert digest == GOLDEN[f"{name}/{order}"]


@pytest.mark.parametrize("name", sorted(TASK_SCENARIOS))
def test_task_report_digest(tmp_path, name):
    scenario, task, exit_code = TASK_SCENARIOS[name]
    code, digest = _run_doc(tmp_path, _module_doc(scenario, [task]))
    assert code == exit_code
    assert digest == GOLDEN[name]


def test_galois_report_digest(tmp_path):
    code, digest = _run_doc(tmp_path, GALOIS_Q3)
    assert code == 0
    assert digest == GOLDEN["galois_q3"]


def test_selftest_report_digest(tmp_path):
    out = tmp_path / "selftest.json"
    assert main(["selftest", "--format", "json", "--output", str(out)]) == 0
    assert _digest(out) == GOLDEN["selftest"]
