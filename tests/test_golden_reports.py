"""Golden reports: the SHA-256 of fixed CLI reports is pinned.

The digests guard refactors of the arithmetic and the runner: a change
that moves a single byte of the selftest report or of one of the scenario
reports below fails here.  Each module scenario runs the ``clifford`` and
``oracle_compare`` tasks in both orders, so a report shared between the
two tasks cannot leak into the other one's details.
"""

import hashlib
import json

import pytest

from orbitcat.cli import main

_MAT2 = {"type": "matrix_algebra", "n": 2}
_SWAP = {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]}
_C3 = {"type": "group_algebra", "group": "C3"}
_INVERSION = {"group": "C2", "kind": "inversion"}

SCENARIOS = {
    # prime field
    "mat2_f5_c2": ({"p": 5, "n": 1}, _MAT2, _SWAP, {"kind": "simple", "index": 0}),
    # extension field with lookup tables
    "mat2_f25_c2": ({"p": 5, "n": 2}, _MAT2, _SWAP, {"kind": "simple", "index": 0}),
    # modular algebra, coprime action: 3 divides |C3|, not |C2|
    "f3c3_regular": ({"p": 3, "n": 1}, _C3, _INVERSION, {"kind": "regular"}),
    # modular action: 2 divides |C2|, and the oracle still compares
    "f2c3_trivial": ({"p": 2, "n": 1}, _C3, _INVERSION, {"kind": "trivial"}),
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
    "galois_q3":
        "9457419c951937bbac622ab76d2c6b8d2a4156edbd7348b640194f9ce2765dc6",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_doc(tmp_path, doc):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["run", str(scen), "--format", "json", "--output", str(out)])
    return code, _digest(out)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_scenario_report_digest(tmp_path, name, order):
    field, alg, action, module = SCENARIOS[name]
    doc = {"schema_version": 1, "field": field, "algebra": alg, "action": action,
           "module": module, "tasks": ORDERS[order]}
    code, digest = _run_doc(tmp_path, doc)
    assert code == 0
    assert digest == GOLDEN[f"{name}/{order}"]


def test_galois_report_digest(tmp_path):
    code, digest = _run_doc(tmp_path, GALOIS_Q3)
    assert code == 0
    assert digest == GOLDEN["galois_q3"]


def test_selftest_report_digest(tmp_path):
    out = tmp_path / "selftest.json"
    assert main(["selftest", "--format", "json", "--output", str(out)]) == 0
    assert _digest(out) == GOLDEN["selftest"]
