import copy
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbitcat import cli
from orbitcat.cli import ScenarioError, list_builders, load_scenario, main, run


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MAT2_SCENARIO = {
    "schema_version": 1,
    "field": {"p": 5, "n": 1},
    "algebra": {"type": "matrix_algebra", "n": 2},
    "action": {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]},
    "module": {"kind": "simple", "index": 0},
    "tasks": ["clifford"],
}


def test_run_mat2_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, MAT2_SCENARIO)
    code = main(["run", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "orbit End dimension: 2" in out
    assert "summands: 2" in out
    assert "overall: PASS" in out


def test_run_json_report_structure(tmp_path, capsys):
    path = write_scenario(tmp_path, MAT2_SCENARIO)
    code = main(["run", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["pass"] is True
    assert rep["timing_ms"] is None
    assert rep["results"][0]["task"] == "clifford"
    # every local certificate carries its evidence
    for line in rep["results"][0]["details"]["certificates"]:
        assert "local: True" in line and "radical dim" in line


def test_reports_byte_stable(tmp_path):
    path = write_scenario(tmp_path, MAT2_SCENARIO)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", path, "--format", "json", "--output", str(out1)]) == 0
    assert main(["run", path, "--format", "json", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_validation_error_exit_2(tmp_path, capsys):
    bad = dict(MAT2_SCENARIO)
    bad["algebra"] = {"type": "group_algebra", "group": [[0, 1], [1, 1]]}
    bad["tasks"] = ["clifford"]
    path = write_scenario(tmp_path, bad)
    code = main(["run", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


GALOIS_C2 = {"q": 3, "deg_l": 1, "deg_m": 2, "group": "C2", "phi": [0, 1], "H": [0, 1]}


def galois_doc(**change):
    return {"tasks": ["galois"], "galois": dict(GALOIS_C2, **change)}


@pytest.mark.parametrize("change", [
    {"field": {"p": 4}},
    {"field": {"p": 2, "n": 40}},
    {"seed": "abc"},
    galois_doc(H=[0, 7]),
    galois_doc(q=6),
    galois_doc(group="C4", deg_m=4, phi=[0], H=[0]),
    galois_doc(deg_l=0),
    galois_doc(deg_m=0),
    galois_doc(deg_l=-1),
    galois_doc(group=6),
    {"tasks": ["galois"], "galois": [1]},
    {"field": [5]},
    {"algebra": [1]},
    {"algebra": {"type": "matrix_algebra", "n": "x"}},
], ids=["field-p-not-prime", "field-order-too-large", "seed-not-integer", "galois-H-out-of-range",
        "galois-q-not-prime-power", "galois-phi-too-short", "galois-deg-l-zero",
        "galois-deg-m-zero", "galois-deg-l-negative", "galois-group-not-a-table",
        "galois-not-an-object", "field-not-an-object", "algebra-not-an-object",
        "algebra-n-not-an-integer"])
def test_malformed_scenario_exit_2(tmp_path, capsys, change):
    code = main(["run", write_scenario(tmp_path, dict(MAT2_SCENARIO, **change))])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("module", [
    {"kind": "simple", "index": -1},
    {"kind": "simple", "index": True},
    {"kind": "simple", "index": 9},
    {"kind": "regular_summand", "index": 2},
], ids=["simple-negative", "simple-bool", "simple-past-the-end", "summand-past-the-end"])
def test_bad_module_index_exit_2(tmp_path, capsys, module):
    """Mat2/F5 has one simple module and one indecomposable summand of its
    regular module; any other index is named with that count."""
    code = main(["run", write_scenario(tmp_path, dict(MAT2_SCENARIO, module=module))])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert f"index {module['index']!r}" in err and "index < 1," in err


MAT2_F4_SCENARIO = dict(MAT2_SCENARIO, field={"p": 2, "n": 2})
EXPLICIT_MODULE = {"kind": "explicit", "matrices": [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                                    [[0, 0], [1, 0]], [[0, 0], [0, 1]]]}


def conjugation(matrix, group="C2"):
    return {"group": group, "kind": "conjugation", "matrix": matrix}


KRONECKER = {"type": "path_algebra", "vertices": 2, "arrows": [[0, 1], [0, 1]]}


def arrow_swap(key="perm", perm=(0, 1, 3, 2)):
    """The Kronecker quiver (basis e0, e1, a, b) with its arrows swapped by
    ``perm``, or by the automorphisms ``perms`` when key is "perms"."""
    return {"algebra": KRONECKER,
            "action": {"group": "C2", "kind": "basis_permutation", key: perm}}


@pytest.mark.parametrize("change,named", [
    ({"action": conjugation([[1, 0], [0, 1.5]])}, "action matrix[1][1] 1.5"),
    ({"action": conjugation([[1, 0], [0, 1e30]])}, "action matrix[1][1] 1e+30"),
    ({"action": conjugation([[1, 0], [0, 7]])}, "action matrix[1][1] 7"),
    ({"action": conjugation([[1, 0], [-1, 1]])}, "action matrix[1][0] -1"),
    ({"action": conjugation([[True, 0], [0, 1]])}, "action matrix[0][0] True"),
    ({"action": {"group": "C2", "kind": "conjugation",
                 "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, "1"]]]}},
     "action matrices[1][1][1] '1'"),
    ({"action": {"group": "C1", "kind": "explicit",
                 "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]]]}},
     "action matrices[0][3][3] 4"),
    ({"module": dict(EXPLICIT_MODULE, matrices=[[[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                                 [[0, 0], [1, 0]], [[0, 0], [0, 0.5]]])},
     "module matrices[3][1][1] 0.5"),
    ({"field": {"p": 5.9}}, "field p 5.9"),
    ({"field": {"p": 2, "n": 2.5}}, "field n 2.5"),
    ({"field": {"p": "5"}}, "field p '5'"),
    ({"field": {"p": True}}, "field p True"),
    (galois_doc(q=3.5), "galois q 3.5"),
    (galois_doc(deg_l="1"), "galois deg_l '1'"),
    (galois_doc(phi=[0, 1.5]), "galois phi[1] 1.5"),
    (galois_doc(phi=[0, 2]), "galois phi[1] 2"),
    (galois_doc(H=[0, "1"]), "galois H[1] '1'"),
    (galois_doc(group=[[0, 1], [1, 0.0]]), "galois group[1][1] 0.0"),
    ({"seed": 2.9}, "seed 2.9"),
    ({"seed": True}, "seed True"),
    ({"algebra": {"type": "matrix_algebra", "n": 2.5}}, "algebra n 2.5"),
    ({"algebra": {"type": "group_algebra", "group": [[0, 1], [1, 0.0]]}},
     "algebra group[1][1] 0.0"),
    ({"algebra": {"type": "path_algebra", "vertices": 2.0, "arrows": [[0, 1]]}},
     "algebra vertices 2.0"),
    ({"algebra": {"type": "path_algebra", "vertices": 2, "arrows": [[0, 2]]}},
     "algebra arrows[0][1] 2"),
    ({"algebra": {"type": "path_algebra", "vertices": 2, "arrows": [[0, 1]],
                  "relations": [[-1]]}}, "algebra relations[0][0] -1"),
    (arrow_swap(perm=[0, 1, 3, -2]), "action perm[3] -2"),
    (arrow_swap(perm=[0, 1, 3, 2.0]), "action perm[3] 2.0"),
    (arrow_swap(perm="0132"), "action perm '0132'"),
    (arrow_swap(perm=[0, 1, 3, 9]), "action perm[3] 9"),
    (arrow_swap(perm=[0, 1, 3, 2, 4]), "action perm[4] 4"),
    (arrow_swap(perm=[0, 1, 3, True]), "action perm[3] True"),
    (arrow_swap("perms", [[0, 1, 2, 3], [0, 1, 3, -2]]), "action perms[1][3] -2"),
], ids=["matrix-float", "matrix-huge-float", "matrix-out-of-range", "matrix-negative",
        "matrix-bool", "matrices-string", "explicit-action-out-of-range",
        "explicit-module-float", "field-p-float", "field-n-float", "field-p-string",
        "field-p-bool", "galois-q-float", "galois-deg-l-string", "galois-phi-float",
        "galois-phi-out-of-range", "galois-H-string", "galois-table-float", "seed-float",
        "seed-bool", "matrix-algebra-n-float", "group-algebra-table-float",
        "path-vertices-float", "path-arrow-out-of-range", "path-relation-negative",
        "perm-negative", "perm-float", "perm-string", "perm-out-of-range", "perm-too-long",
        "perm-bool", "perms-negative"])
def test_scenario_numbers_are_strict(tmp_path, capsys, change, named):
    """Matrix entries are field codes, integers in range(q); the field's p and
    n, the galois section's numbers, the seed, group tables and the sizes and
    indices of the algebra are integers with their bounds.  Anything else
    exits 2 naming the entry and its bound."""
    code = main(["run", write_scenario(tmp_path, dict(MAT2_F4_SCENARIO, **change))])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert err.startswith(named + " must be an integer with ")
    if "matri" in named:
        assert err.endswith(" < 4, the order of FF(2^2)")
    if "perm" in named:
        assert err.endswith(" < 4, the algebra dimension")


@pytest.mark.parametrize("change,error", [
    (arrow_swap(perm=[0, 1, 2, 2]),
     "action perm [0, 1, 2, 2] must have distinct entries, a permutation of range(4)"),
    (arrow_swap(perm=[0, 1]), "action perm of shape (2,) must have shape (4,), "
     "one entry per basis element of the algebra"),
    ({"action": conjugation([[0, 1, 0], [1, 0, 0], [0, 0, 1]])},
     "action matrix of shape (3, 3) must have shape (2, 2), the size of the matrix algebra Mat2"),
    ({"action": conjugation([1, 0, 0, 1])},
     "action matrix of shape (4,) must have shape (2, 2), the size of the matrix algebra Mat2"),
    ({"action": {"group": "C2", "kind": "conjugation",
                 "matrices": [[[1, 0], [0, 1]], [[0, 1, 1], [1, 0, 1]]]}},
     "action matrices[1] of shape (2, 3) must have shape (2, 2), "
     "the size of the matrix algebra Mat2"),
    ({"algebra": {"type": "path_algebra", "vertices": 2, "arrows": [[0]]},
      "action": {"group": "C1", "kind": "trivial"}},
     "algebra arrows[0] of shape (1,) must have shape (2,), a (source, target) pair"),
    ({"field": {"p": 5}, "module": dict(EXPLICIT_MODULE, matrices=[1, 2, 3, 4])},
     "action matrices must be square of equal size"),
    ({"module": dict(EXPLICIT_MODULE, matrices=[[[1]], [[1]], [[1]], [[1, 0], [0, 1]]])},
     "action matrices must be square of equal size"),
    ({"module": dict(EXPLICIT_MODULE, matrices=3)}, "module matrices 3 must be a list"),
    ({"action": {"group": "C2", "kind": "conjugation", "matrices": 3}},
     "action matrices 3 must be a list"),
    ({"action": {"group": "C1", "kind": "explicit", "matrices": 3}},
     "action matrices 3 must be a list"),
    (arrow_swap("perms", 3), "action perms 3 must be a list"),
    ({"algebra": {"type": "path_algebra", "vertices": 2, "arrows": 3},
      "action": {"group": "C1", "kind": "trivial"}}, "algebra arrows 3 must be a list"),
    ({"algebra": dict(KRONECKER, relations=3), "action": {"group": "C1", "kind": "trivial"}},
     "algebra relations 3 must be a list"),
    (galois_doc(q=2, deg_l=1, deg_m=30, group="C1", phi=[0], H=[0]),
     "field order 2^30 exceeds 1048576"),
], ids=["perm-repeated", "perm-too-short", "matrix-3x3", "matrix-flat", "matrices-2x3",
        "arrow-not-a-pair", "module-matrices-flat", "module-matrices-unequal",
        "module-matrices-int", "conjugation-matrices-int", "explicit-matrices-int",
        "perms-int", "arrows-int", "relations-int", "galois-field-too-large"])
def test_scenario_shapes_are_strict(tmp_path, capsys, change, error):
    """A permutation lists each basis index once, a conjugation matrix is
    n x n for Mat_n, an arrow is a pair of vertices, a module's action is
    dim A square matrices of one size, a list key holds a list and a Galois
    tower's field M lies within the field bound; anything else exits 2
    naming the field and the shape, or the order, it must have."""
    code = main(["run", write_scenario(tmp_path, dict(MAT2_F4_SCENARIO, **change))])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


TWISTED_SCENARIO = dict(MAT2_SCENARIO, field={"p": 3},
                        algebra={"type": "twisted_group_ring", "q": 3, "deg_m": 2,
                                 "group": "C2", "phi": [0, 1]},
                        action={"group": "C1", "kind": "trivial"})


def _dropped(doc, section, key):
    """doc without key in its section."""
    return dict(doc, **{section: {k: v for k, v in doc[section].items() if k != key}})


GALOIS_SCENARIO = {"schema_version": 1, "tasks": ["galois"], "galois": GALOIS_C2}
PATH_SCENARIO = dict(MAT2_SCENARIO, algebra={"type": "path_algebra", "vertices": 2,
                                             "arrows": [[0, 1]]},
                     action={"group": "C1", "kind": "trivial"})


@pytest.mark.parametrize("doc,section,named", [
    (_dropped(MAT2_SCENARIO, "algebra", "type"), "algebra", "no key 'type'"),
    (_dropped(MAT2_SCENARIO, "algebra", "n"), "algebra", "no key 'n'"),
    (_dropped(PATH_SCENARIO, "algebra", "vertices"), "algebra", "no key 'vertices'"),
    (_dropped(PATH_SCENARIO, "algebra", "arrows"), "algebra", "no key 'arrows'"),
    (dict(MAT2_SCENARIO, algebra={"type": "group_algebra"}), "algebra", "no key 'group'"),
    (_dropped(TWISTED_SCENARIO, "algebra", "q"), "algebra", "no key 'q'"),
    (_dropped(MAT2_SCENARIO, "action", "group"), "action", "no key 'group'"),
    (_dropped(MAT2_SCENARIO, "action", "matrix"), "action", "no key 'matrix'"),
    (dict(MAT2_SCENARIO, algebra=KRONECKER, action={"group": "C2", "kind": "basis_permutation"}),
     "action", "no key 'perm'"),
    (dict(MAT2_SCENARIO, action={"group": "C1", "kind": "explicit"}), "action",
     "no key 'matrices'"),
    (_dropped(MAT2_SCENARIO, "module", "kind"), "module", "no key 'kind'"),
    (_dropped(MAT2_SCENARIO, "field", "p"), "field", "no key 'p'"),
    (_dropped(GALOIS_SCENARIO, "galois", "q"), "galois", "no key 'q'"),
    (_dropped(GALOIS_SCENARIO, "galois", "H"), "galois", "no key 'H'"),
    (dict(MAT2_SCENARIO, algebra=3), "algebra", "must be an object, not int"),
    (dict(MAT2_SCENARIO, module=[0]), "module", "must be an object, not list"),
    (dict(GALOIS_SCENARIO, galois="C2"), "galois", "must be an object, not str"),
    (dict(MAT2_SCENARIO, algebra={"type": "skew_group_algebra", "base": 3,
                                  "action": {"group": "C1"}}),
     "algebra", "'int' object is not subscriptable"),
], ids=["algebra-type", "algebra-n", "algebra-vertices", "algebra-arrows", "algebra-group",
        "algebra-q", "action-group", "action-matrix", "action-perm", "action-matrices",
        "module-kind", "field-p", "galois-q", "galois-H", "algebra-int", "module-list",
        "galois-str", "skew-base-int"])
def test_scenario_errors_name_the_section_and_the_key(tmp_path, capsys, doc, section, named):
    """A missing key exits 2 naming its section and the key, and a section
    that is not an object exits 2 naming the section and its type."""
    code = main(["run", write_scenario(tmp_path, doc)])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert err.startswith(f"scenario section {section!r}") and named in err


def test_twisted_group_ring_is_over_the_scenario_field(tmp_path, capsys):
    """F9 x| C2 is built over the field section's F_3; a q that is not the
    field order exits 2 naming both, where the ring was built over F_q."""
    assert main(["run", write_scenario(tmp_path, TWISTED_SCENARIO)]) == 0
    capsys.readouterr()
    code = main(["run", write_scenario(tmp_path, dict(TWISTED_SCENARIO, field={"p": 5}))])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == \
        "algebra q 3 must equal the field order 5"


def test_arrow_swap_scenario_runs(tmp_path, capsys):
    code = main(["run", write_scenario(tmp_path, dict(MAT2_SCENARIO, **arrow_swap()))])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("change", [
    {"action": conjugation([[1, 0], [0, 3]], "C3")},  # 3 is a cube root of unity in F4
    {"module": EXPLICIT_MODULE},
], ids=["matrix-top-code", "explicit-module"])
def test_scenario_codes_in_range_run(tmp_path, capsys, change):
    code = main(["run", write_scenario(tmp_path, dict(MAT2_F4_SCENARIO, **change))])
    capsys.readouterr()
    assert code in (0, 1)


GROUP_SCENARIO = {
    "schema_version": 1,
    "field": {"p": 7, "n": 1},
    "algebra": {"type": "group_algebra", "group": "C3"},
    "action": {"group": "C2", "kind": "inversion"},
    "module": {"kind": "trivial"},
    "tasks": ["clifford", "oracle_compare"],
}
FUZZ_DOCS = [MAT2_SCENARIO, GROUP_SCENARIO,
             {"schema_version": 1, "tasks": ["galois"], "galois": GALOIS_C2}]


def document_paths(node, prefix=()):
    """The key paths of every section and leaf below the root."""
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from document_paths(child, prefix + (key,))


# ints stay <= 4 so that every drawn field, algebra and tower stays small
FUZZ_VALUES = st.one_of(
    st.integers(-2, 4), st.text(max_size=3), st.none(), st.booleans(),
    st.just({}), st.lists(st.integers(-2, 4), max_size=3),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exit_codes(tmp_path, capsys, data):
    """One section or leaf replaced by junk: the run ends with exit 0, 1 or
    2 and never raises; exit 2 carries a JSON diagnostic."""
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS)))
    path = data.draw(st.sampled_from(list(document_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(FUZZ_VALUES)
    code = main(["run", write_scenario(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in json.loads(err)


def test_selftest_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["selftest", "--seed", "-1", "--format", "json", "--output", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "seed -1 must be an integer with 0 <= seed"}
    assert not out.exists()


def test_unknown_task_rejected(tmp_path):
    bad = dict(MAT2_SCENARIO)
    bad["tasks"] = ["nonsense"]
    with pytest.raises(ScenarioError, match="unknown task"):
        load_scenario(bad)


def test_schema_version_required():
    with pytest.raises(ScenarioError, match="schema_version"):
        load_scenario({"tasks": ["clifford"]})


def test_failing_check_exit_1(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "field": {"p": 5, "n": 1},
        "algebra": {"type": "matrix_algebra", "n": 2},
        "action": {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]},
        "module": {"kind": "simple", "index": 0},
        # the simple module of Mat2 has full inertia: this check must fail
        "tasks": ["trivial_inertia"],
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_oracle_compare_task(tmp_path, capsys):
    path = write_scenario(tmp_path, GROUP_SCENARIO)
    code = main(["run", path, "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    oc = next(r for r in rep["results"] if r["task"] == "oracle_compare")
    assert oc["details"]["match"] is True


C3_ALGEBRA = {"type": "group_algebra", "group": "C3"}
INVERSION = {"group": "C2", "kind": "inversion"}
SWAP = conjugation([[0, 1], [1, 0]])
KRONECKER3 = {"type": "path_algebra", "vertices": 2, "arrows": [[0, 1], [0, 1], [0, 1]]}
ARROW_CYCLE = {"group": "C3", "kind": "basis_permutation", "perm": [0, 1, 3, 4, 2]}
KLEIN_CYCLE = {"group": "C3", "kind": "basis_permutation", "perm": [0, 2, 3, 1]}
# (field, algebra, action, module): p divides the order of the acting group
MODULAR_SCENARIOS = {
    "f2c3-trivial": ({"p": 2, "n": 1}, C3_ALGEBRA, INVERSION, {"kind": "trivial"}),
    "f2c3-simple1": ({"p": 2, "n": 1}, C3_ALGEBRA, INVERSION, {"kind": "simple", "index": 1}),
    "f4c3-trivial": ({"p": 2, "n": 2}, C3_ALGEBRA, INVERSION, {"kind": "trivial"}),
    "mat2f2-swap": ({"p": 2, "n": 1}, MAT2_SCENARIO["algebra"], SWAP,
                    {"kind": "simple", "index": 0}),
    "mat2f4-swap": ({"p": 2, "n": 2}, MAT2_SCENARIO["algebra"], SWAP,
                    {"kind": "simple", "index": 0}),
    "kronecker-f2-simple0": ({"p": 2, "n": 1}, KRONECKER, arrow_swap()["action"],
                             {"kind": "simple", "index": 0}),
    "kronecker-f2-proj0": ({"p": 2, "n": 1}, KRONECKER, arrow_swap()["action"],
                           {"kind": "regular_summand", "index": 0}),
    "kronecker-f2-proj1": ({"p": 2, "n": 1}, KRONECKER, arrow_swap()["action"],
                           {"kind": "regular_summand", "index": 1}),
    "kronecker3-f3-proj1": ({"p": 3, "n": 1}, KRONECKER3, ARROW_CYCLE,
                            {"kind": "regular_summand", "index": 1}),
    "f3klein-trivial": ({"p": 3, "n": 1}, {"type": "group_algebra", "group": "C2xC2"},
                        KLEIN_CYCLE, {"kind": "trivial"}),
}


@pytest.mark.parametrize("name", sorted(MODULAR_SCENARIOS))
def test_oracle_compare_modular(tmp_path, capsys, name):
    """The orbit side and the skew-group-algebra side agree in modular
    characteristic too: every case is compared, none skipped."""
    field, alg, action, module = MODULAR_SCENARIOS[name]
    doc = {"schema_version": 1, "field": field, "algebra": alg, "action": action,
           "module": module, "tasks": ["oracle_compare"]}
    code = main(["run", write_scenario(tmp_path, doc), "--format", "json"])
    details = json.loads(capsys.readouterr().out)["results"][0]["details"]
    assert code == 0
    assert details["status"] == "compared" and details["match"] is True


def test_clifford_and_oracle_share_one_run(tmp_path, monkeypatch):
    calls = []
    real = cli.clifford_run
    monkeypatch.setattr(cli, "clifford_run", lambda *a: calls.append(a) or real(*a))
    doc = dict(MAT2_SCENARIO)
    # the regular module of Mat2 is decomposable, so clifford_run raises
    doc["module"] = {"kind": "regular"}
    doc["tasks"] = ["oracle_compare", "clifford"]
    rep = run(write_scenario(tmp_path, doc))
    assert len(calls) == 1
    errors = [r["details"]["error"] for r in rep["results"]]
    assert errors[0] == errors[1] and "not indecomposable" in errors[0]
    assert rep["pass"] is False


def test_galois_task(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "tasks": ["galois"],
        "galois": {
            "q": 3,
            "deg_l": 2,
            "deg_m": 4,
            "group": "C4",
            "phi": [0, 1, 2, 3],
            "H": [0, 2],
        },
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    details = rep["results"][0]["details"]
    assert details["rank"]["rank"] == 4
    assert details["monad"]["element_orders"] == [1, 2, 2, 2]


def test_galois_order_above_the_field_bound_exits_2_at_once(tmp_path, capsys):
    """A prime q far above the field bound is refused by its size, before
    any trial division: 2^31 - 1 would take minutes to divide up to q."""
    doc = {"schema_version": 1, "tasks": ["galois"],
           "galois": {"q": 2147483647, "deg_l": 1, "deg_m": 1, "group": "C1",
                      "phi": [0], "H": [0]}}
    path = write_scenario(tmp_path, doc)
    t0 = time.perf_counter()
    code = main(["run", path])
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "field order 2147483647 exceeds 1048576"


@pytest.mark.parametrize("algebra, d", [
    ({"type": "path_algebra", "vertices": 40, "arrows": [[i, i + 1] for i in range(39)]}, 820),
    ({"type": "matrix_algebra", "n": 30}, 900),
], ids=["linear-quiver-40", "matrix-algebra-30"])
def test_oversized_algebra_exits_2_at_once(tmp_path, capsys, algebra, d):
    """An algebra above dimension 256 is refused before its (d, d, d) int64
    structure constants are allocated: 4.1 GiB for the 820 paths of the
    linear quiver on 40 vertices, 5.8 GiB for Mat30."""
    path = write_scenario(tmp_path, dict(MAT2_SCENARIO, algebra=algebra))
    t0 = time.perf_counter()
    code = main(["run", path])
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        f"algebra of dimension {d} is larger than supported")



def test_algebra_at_the_dimension_cap_is_built_within_2_gb(tmp_path):
    """The group algebra of C16 x C16 (dimension 256, the largest allowed)
    is built and validated under a 2,000,000 KiB address-space limit, where
    it peaks near 1 GiB; the scenario then ends with exit 2 and a JSON
    diagnostic for its action, which does not fit that algebra, not with
    an out-of-memory traceback."""
    pairs = [(a, b) for a in range(16) for b in range(16)]
    table = [[16 * ((a + c) % 16) + (b + e) % 16 for c, e in pairs] for a, b in pairs]
    doc = dict(MAT2_SCENARIO, algebra={"type": "group_algebra", "group": table})
    path = write_scenario(tmp_path, doc)
    limit = 2_000_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcat.cli", "run", path],
        capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["error"].startswith("action matrix of shape (2, 2)")

def test_skewfield_task(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "field": {"p": 7, "n": 1},
        "algebra": {"type": "group_algebra", "group": "C3"},
        "action": {"group": "C2", "kind": "inversion"},
        "module": {"kind": "simple", "index": 1},
        "tasks": ["skewfield"],
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    # simple index 1 is a nontrivial character (sorted by dim, then bytes),
    # so its inertia is trivial and the check must pass
    assert code == 0
    assert rep["results"][0]["details"]["ok"] is True


def test_laws_task(tmp_path, capsys):
    doc = {"schema_version": 1, "tasks": ["laws"]}
    # the laws task runs the built-in corpus and needs no scenario sections
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["results"][0]["pass"] is True


def test_list_builders(capsys):
    code = main(["list-builders"])
    out = capsys.readouterr().out
    assert code == 0
    for word in ("group_algebra", "matrix_algebra", "twisted_group_ring", "clifford"):
        assert word in out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcat.cli", "list-builders"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "group_algebra" in proc.stdout
