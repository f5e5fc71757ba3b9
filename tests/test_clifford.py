import itertools
import math
import pathlib
import runpy

import numpy as np
import pytest

from orbitcat import algebra as algebra_mod, clifford as clifford_mod, karoubi as karoubi_mod
from orbitcat import rep as rep_mod
from orbitcat.algebra import (
    AlgebraAut,
    CertificationError,
    corner_algebra,
    is_local,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    primitive_orthogonal_idempotents,
    radical,
)
from orbitcat.clifford import (
    CliffordViolation,
    clifford_run,
    inertia,
    is_simple,
    skewfield_check,
    trivial_inertia_check,
)
from orbitcat.ffield import FF
from orbitcat.karoubi import (
    KarObject,
    kar_decompose,
    kar_end_algebra,
    kar_functor_T,
    kar_is_isomorphic,
)
from orbitcat.oracle import SkewContext, oracle_compare
from orbitcat.orbit import GroupAction, orbit_hom, sub_inclusion_S
from orbitcat.rep import (
    Module,
    decompose,
    direct_sum,
    hom_space,
    is_isomorphic,
    quotient_module,
    random_base_change,
    regular_module,
    simple_modules,
    submodule_span,
)
from orbitcat.scenarios import (
    GROUP_TABLES,
    build_action,
    build_algebra,
    build_field,
    build_module,
    inversion_permutation_aut,
)


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def character_module(A, field, value):
    k = A.dim
    mats = [np.array([[field.pow(value, i)]], dtype=np.int64) for i in range(k)]
    return Module(A, mats)


def inversion_action(A):
    k = A.dim
    U = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        U[(k - i) % k, i] = 1
    ident = AlgebraAut(A, np.eye(k, dtype=np.int64))
    return GroupAction(A, cyclic_table(2), [ident, AlgebraAut(A, U)])


def conjugation_matrix(A, u, F):
    from orbitcat.linalg import inverse

    n = int(np.sqrt(A.dim))
    uinv = inverse(F, u)
    U = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j in range(A.dim):
        Ej = np.zeros((n, n), dtype=np.int64)
        Ej[j // n, j % n] = 1
        U[:, j] = F.vmatmul(F.vmatmul(u, Ej), uinv).reshape(-1)
    return U


def mat2_swap_action():
    F = FF(5)
    A = make_matrix_algebra(2, F)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    U = conjugation_matrix(A, swap, F)
    ident = AlgebraAut(A, np.eye(4, dtype=np.int64))
    return A, GroupAction(A, cyclic_table(2), [ident, AlgebraAut(A, U)])


def column_module(A):
    """The natural n-dim module of Mat_n, with n read off dim A = n^2."""
    n = math.isqrt(A.dim)
    mats = [np.zeros((n, n), dtype=np.int64) for _ in range(n * n)]
    for u in range(n):
        for v in range(n):
            mats[u * n + v][u, v] = 1
    return Module(A, mats)


def f3c3_indecomposables():
    """The three indecomposables of F_3 C_3: dims 1, 2, 3."""
    F = FF(3)
    A = make_group_algebra(cyclic_table(3), F)
    reg = regular_module(A)
    J = radical(A)
    # J^2 inside the regular module: span of products
    j2 = A.span_products(J, J).reshape(-1, 3)
    sub2 = submodule_span(reg, j2)
    dim2 = quotient_module(reg, sub2)
    dim1 = character_module(A, F, 1)
    return A, [dim1, dim2, reg]


def c4_character_case():
    """An order-4 character of F5[C4] under inversion through C4 -> C2: the
    inertia is {0, 2}, both classes have outside checks at g = 1 and 3."""
    F = FF(5)
    C4 = make_group_algebra(GROUP_TABLES["C4"], F)
    ident = AlgebraAut(C4, np.eye(4, dtype=np.int64))
    inv = inversion_permutation_aut(C4)
    action = GroupAction(C4, GROUP_TABLES["C4"], [ident, inv, ident, inv])
    return action, Module(C4, [np.array([[F.pow(2, i)]], dtype=np.int64) for i in range(4)])


def test_inertia_trivial_module():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    triv = character_module(A, F, 1)
    ind = inertia(triv, action)
    assert ind.subgroup == (0, 1)


def test_inertia_character():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)
    ind = inertia(chi, action)
    assert ind.subgroup == (0,)


def test_inertia_mat2_simple():
    A, action = mat2_swap_action()
    S = column_module(A)
    ind = inertia(S, action)
    assert ind.subgroup == (0, 1)
    # the witness really intertwines
    F = A.field
    w = ind.witnesses[1]
    tw = action.twisted(S, 1)
    for i in range(A.dim):
        assert np.array_equal(F.vmatmul(w, tw.mats[i]), F.vmatmul(S.mats[i], w))


def test_inertia_rejects_decomposable():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)
    M, _, _ = direct_sum([chi, chi])
    with pytest.raises(ValueError, match="decompose first"):
        inertia(M, action)


def test_inertia_invariant_under_base_change():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    rng = np.random.default_rng(3)
    reg = regular_module(A)
    for M in [character_module(A, F, 2), decompose(reg).summands[0].module]:
        base = inertia(M, action).subgroup
        for _ in range(2):
            conj = random_base_change(M, rng)
            assert inertia(conj, action).subgroup == base


def test_clifford_run_character_trivial_inertia():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)
    rep = clifford_run(action, chi)
    assert rep.inertia_subgroup == (0,)
    assert len(rep.stage1) == 1
    assert rep.stage1[0].n_copies == 1
    assert rep.sum_n_equals_inertia
    assert all(s.local for s in rep.stage2)
    # induced object materializes with dimension |Gamma| * dim = 2
    assert rep.stage2[0].materialized_dim == 2


def test_clifford_run_trivial_module_splits():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    triv = character_module(A, F, 1)
    rep = clifford_run(action, triv)
    assert rep.inertia_subgroup == (0, 1)
    assert len(rep.stage1) == 2
    assert all(s.n_copies == 1 and s.multiplicity == 1 for s in rep.stage1)
    assert rep.sum_n_equals_inertia
    assert all(s.local for s in rep.stage2)
    assert rep.signature() == [(1, 2)]


def test_clifford_run_mat2():
    A, action = mat2_swap_action()
    S = column_module(A)
    rep = clifford_run(action, S)
    assert rep.inertia_subgroup == (0, 1)
    assert len(rep.stage1) == 2
    assert rep.sum_n_equals_inertia
    assert all(s.local for s in rep.stage2)


def test_clifford_run_f3c3_all_indecomposables():
    A, mods = f3c3_indecomposables()
    action = inversion_action(A)
    assert [m.dim for m in mods] == [1, 2, 3]
    for M in mods:
        rep = clifford_run(action, M)
        assert rep.sum_n_equals_inertia
        assert all(s.local for s in rep.stage2)
        assert rep.inertia_subgroup == (0, 1)


def test_clifford_run_intermediate_inertia():
    """C4 acting on F5[C4] through inversion: an order-4 character has
    inertia exactly {0, 2}, a proper nontrivial subgroup, so stage 2
    extends into a strictly bigger group and the outside elements must
    move both summands."""
    action, chi = c4_character_case()
    rep = clifford_run(action, chi)
    assert rep.inertia_subgroup == (0, 2)
    assert [(s.multiplicity, s.n_copies) for s in rep.stage1] == [(1, 1), (1, 1)]
    assert rep.sum_n_equals_inertia
    assert all(s.local for s in rep.stage2)
    assert all(c["checked"] and c["distinct"] for c in rep.outside_checks)
    out = oracle_compare(rep, SkewContext(action))
    assert out["match"] and out["classical_signature"] == [(2, 2)]


def test_clifford_run_klein_twisted_cocycle():
    """C2 x C2 on Mat2(F5) by pairwise non-commuting conjugations: the
    inner witnesses carry a nontrivial cocycle, the orbit End is a full
    matrix algebra, and the unique summand class has multiplicity 2 with
    two copies of the module in each restriction (sum 4 = inertia order)."""
    from orbitcat.oracle import SkewContext, oracle_compare
    from orbitcat.scenarios import build_action

    F = FF(5)
    A = make_matrix_algebra(2, F)
    diag = np.array([[1, 0], [0, 4]], dtype=np.int64)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    action = build_action(
        A,
        {"group": "C2xC2", "kind": "conjugation",
         "matrices": [np.eye(2, dtype=np.int64), diag, swap, F.vmatmul(diag, swap)]},
    )
    S = column_module(A)
    rep = clifford_run(action, S)
    assert rep.inertia_subgroup == (0, 1, 2, 3)
    assert rep.orbit_end_dim == 4
    assert [(s.multiplicity, s.n_copies) for s in rep.stage1] == [(2, 2)]
    assert rep.sum_n_equals_inertia
    assert all(s.local for s in rep.stage2)
    out = oracle_compare(rep, SkewContext(action))
    assert out["match"] and out["classical_signature"] == [(4, 2)]


def test_clifford_run_over_extension_field():
    """The whole pipeline over the ground field F_4: the inversion swaps
    the two nontrivial C3 characters, so each has trivial inertia."""
    F4 = FF(2, 2)
    A = make_group_algebra(cyclic_table(3), F4)
    reg = regular_module(A)
    dec = decompose(reg)
    assert [(s.module.dim, s.multiplicity) for s in dec.summands] == [(1, 1)] * 3
    action = inversion_action(A)
    nontrivial = [
        s.module for s in dec.summands if not np.array_equal(s.module.mats[1], np.eye(1))
    ]
    assert len(nontrivial) == 2
    for chi in nontrivial:
        rep = clifford_run(action, chi)
        assert rep.inertia_subgroup == (0,)
        assert rep.sum_n_equals_inertia
        assert all(s.local for s in rep.stage2)


def test_trivial_inertia_check_character():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)
    out = trivial_inertia_check(action, chi)
    assert out["ok"] and out["end_dim"] == 1


def test_trivial_inertia_check_vacuous_trivial_group():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    ident = AlgebraAut(A, np.eye(3, dtype=np.int64))
    action = GroupAction(A, [[0]], [ident])
    chi = character_module(A, F, 2)
    out = trivial_inertia_check(action, chi)
    assert out["ok"]


def test_trivial_inertia_check_rejects_full_inertia():
    A, action = mat2_swap_action()
    S = column_module(A)
    with pytest.raises(ValueError, match="inertia not trivial"):
        trivial_inertia_check(action, S)


def test_is_simple():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    chi = character_module(A, F, 2)
    assert is_simple(chi)
    M, _, _ = direct_sum([chi, chi])
    assert not is_simple(M)
    A3, mods = f3c3_indecomposables()
    assert is_simple(mods[0])
    assert not is_simple(mods[1])  # indecomposable but not simple
    assert not is_simple(mods[2])
    # 19,608 points in the projective space of F7^6: decided by density
    col = column_module(make_matrix_algebra(6, F))
    assert is_simple(col)
    assert not is_simple(direct_sum([col, col])[0])


def test_skewfield_check_character():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)
    out = skewfield_check(action, chi)
    assert out["ok"] and out["end_dim"] == 1


def test_skewfield_check_trivial_group_schur():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    ident = AlgebraAut(A, np.eye(3, dtype=np.int64))
    action = GroupAction(A, [[0]], [ident])
    chi = character_module(A, F, 2)
    out = skewfield_check(action, chi)
    assert out["ok"]


def test_skewfield_check_c4_character():
    F = FF(5)
    A = make_group_algebra(cyclic_table(4), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)  # generator acts by 2, inversion sends to 3
    out = skewfield_check(action, chi)
    assert out["ok"] and out["end_dim"] == 1


def test_skewfield_check_rejects_fixed_module():
    A, action = mat2_swap_action()
    S = column_module(A)
    with pytest.raises(ValueError, match="inertia not trivial"):
        skewfield_check(action, S)


def test_no_algebra_has_its_radical_certified_twice(monkeypatch):
    """radical keeps the record it certified on the algebra, and every
    reader of the top A/J takes it from there, so no algebra object is
    certified twice (certified radical calls, and runs of
    _certify_radical) or has its top built twice (quotient_algebra).
    Counted per algebra object on the Mat2/F5 simple module under the swap
    (whole inertia), on a 3-dim simple of F2C7 under inversion (its End is
    F8, so every site sees an algebra of dimension 3, where is_local has no
    1-dimensional shortcut), on an S3 star case with a proper inertia and
    two classes (stage 2 reads the classes off E_G), and through
    decompose and simple_modules."""
    seen = {"radical": [], "_certify_radical": [], "quotient_algebra": []}
    originals = {name: getattr(algebra_mod, name) for name in seen}

    def counting(A, certify=True):
        if certify:
            seen["radical"].append(A)  # holds the algebras, so no id is reused
        return originals["radical"](A, certify)

    def recording(name):
        def run(A, *args, **kwargs):
            seen[name].append(A)
            return originals[name](A, *args, **kwargs)
        return run

    monkeypatch.setattr(algebra_mod, "radical", counting)
    monkeypatch.setattr(clifford_mod, "radical", counting)
    for name in ("_certify_radical", "quotient_algebra"):
        monkeypatch.setattr(algebra_mod, name, recording(name))
    A, action = mat2_swap_action()
    S = column_module(A)
    assert all(s.local for s in clifford_run(action, S).stage2)
    assert is_simple(S)
    C7 = make_group_algebra(cyclic_table(7), FF(2))
    S = next(M for M in simple_modules(C7) if M.dim == 3)
    action = inversion_action(C7)
    assert [s.corner_dim for s in clifford_run(action, S).stage2] == [3]
    assert is_simple(S)
    assert skewfield_check(action, S) == {"ok": True, "end_dim": 3}
    action, M = s3_case("star_f5/simple/0")
    report = clifford_run(action, M)
    assert len(report.inertia_subgroup) < action.k and len(report.stage1) == 2
    F3C3, mods = f3c3_indecomposables()
    assert [s.multiplicity for s in decompose(direct_sum(mods + mods)[0]).summands] == [2] * 3
    assert [T.dim for T in simple_modules(F3C3)] == [1]
    assert all(seen.values())
    for name, algebras in seen.items():
        assert len({id(E) for E in algebras}) == len(algebras), name


def test_clifford_run_builds_each_karoubi_corner_once(monkeypatch):
    """Stage 1 passes its corners forward, so no compressed hom basis is
    built twice for one pair of objects: on the Mat2/F5 simple under the
    swap and the trivial F7C3 module under inversion (whole-group inertia,
    two classes), on an order-4 character of F5[C4] (inertia {0, 2}, with
    outside checks) and on a character with trivial inertia (one piece)."""
    pairs = []  # holds the objects, so no id is reused
    original = karoubi_mod._kar_basis

    def counting(P, Q, raw):
        pairs.append((P, Q))
        return original(P, Q, raw)

    monkeypatch.setattr(karoubi_mod, "_kar_basis", counting)
    A, action = mat2_swap_action()
    F7C3 = make_group_algebra(cyclic_table(3), FF(7))
    cases = [
        (action, column_module(A)),
        (inversion_action(F7C3), character_module(F7C3, FF(7), 1)),
        c4_character_case(),
        (inversion_action(F7C3), character_module(F7C3, FF(7), 2)),
    ]
    for act, M in cases:
        pairs.clear()
        clifford_run(act, M)
        keys = [tuple((id(X.module), X.support, X.idem.stack.tobytes()) for X in pair)
                for pair in pairs]
        assert keys and len(set(keys)) == len(keys)


def symmetric_conjugation_action(n, F):
    """S_n acting on Mat_n by conjugation with permutation matrices, the
    group table over itertools.permutations(range(n)), (a b)(i) = a[b[i]]."""
    A = make_matrix_algebra(n, F)
    perms = list(itertools.permutations(range(n)))
    index = {q: i for i, q in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms]
    auts = []
    for q in perms:
        u = np.zeros((n, n), dtype=np.int64)
        u[list(q), range(n)] = 1
        auts.append(AlgebraAut(A, conjugation_matrix(A, u, F)))
    return A, GroupAction(A, table, auts)


@pytest.mark.parametrize("n, stage1", [
    (3, [(2, 2), (1, 1), (1, 1)]),
    (4, [(2, 2), (1, 1), (3, 3), (3, 3), (1, 1)]),
])
def test_clifford_stage1_matches_a_pairwise_grouping(monkeypatch, n, stage1):
    """Stage 1 reads its classes off the blocks of E_P / rad E_P; grouping
    the same primitive summands pairwise with kar_is_isomorphic, as
    clifford_run did before, gives the same classes in the same order.
    S_n on Mat_n/F5, the simple module; the inertia is all of S_n, so
    there are no outside checks and no kar_is_isomorphic call at all."""
    A, action = symmetric_conjugation_action(n, FF(5))
    M = simple_modules(A)[0]
    P = KarObject(action, M, support=inertia(M, action).subgroup)
    classes = []
    raw = orbit_hom(M, M, action, support=P.support)
    E, H = kar_end_algebra(P, raw)
    for p in kar_decompose(P, H, primitive_orthogonal_idempotents(E)):
        hit = next((c for c in classes if kar_is_isomorphic(c[0], p, raw, raw) is not None),
                   None)
        if hit is None:
            classes.append([p])
        else:
            hit.append(p)
    monkeypatch.setattr(clifford_mod, "kar_is_isomorphic", None)
    report = clifford_run(action, M)
    assert [(s.multiplicity, s.n_copies) for s in report.stage1] == stage1
    assert [s.multiplicity for s in report.stage1] == [len(c) for c in classes]
    assert [s.restricted_dim for s in report.stage1] == [kar_functor_T(c[0]).dim for c in classes]


# S3 acting with a proper inertia: permuting the outer vertices 1, 2, 3 of
# the star quiver 1 -> 0 <- 2, 3 -> 0 (basis e0..e3, then the arrows), and
# permuting the vertices of F5^3, in s3_table's element order
STAR_PERMS = [[0, 1, 2, 3, 4, 5, 6], [0, 2, 3, 1, 5, 6, 4], [0, 3, 1, 2, 6, 4, 5],
              [0, 1, 3, 2, 4, 6, 5], [0, 3, 2, 1, 6, 5, 4], [0, 2, 1, 3, 5, 4, 6]]
CUBE_PERMS = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0], [1, 0, 2]]
WHOLE = (0, 1, 2, 3, 4, 5)
# name -> (inertia, stage-1 tuples (multiplicity, n_copies, corner_dim,
# restricted_dim), stage-2 tuples (corner_dim, corner_radical_dim, local,
# materialized_dim)); the oracle matches on every case
S3_PINS = {
    "star_f2/simple/0": ((0, 5), [(1, 2, 2, 2)], [(2, 1, True, 6)]),
    "star_f2/simple/1": ((0, 4), [(1, 2, 2, 2)], [(2, 1, True, 6)]),
    "star_f2/simple/2": ((0, 3), [(1, 2, 2, 2)], [(2, 1, True, 6)]),
    "star_f2/simple/3": (WHOLE, [(1, 2, 2, 2), (2, 2, 1, 2)], [(2, 1, True, 2), (1, 0, True, 2)]),
    "star_f2/regular_summand/0":
        (WHOLE, [(1, 2, 2, 2), (2, 2, 1, 2)], [(2, 1, True, 2), (1, 0, True, 2)]),
    "star_f2/regular_summand/1": ((0, 5), [(1, 2, 2, 4)], [(2, 1, True, 12)]),
    "star_f2/regular_summand/2": ((0, 4), [(1, 2, 2, 4)], [(2, 1, True, 12)]),
    "star_f2/regular_summand/3": ((0, 3), [(1, 2, 2, 4)], [(2, 1, True, 12)]),
    "star_f3/simple/0": ((0, 5), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "star_f3/simple/1": ((0, 4), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "star_f3/simple/2": ((0, 3), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "star_f3/simple/3": (WHOLE, [(1, 3, 2, 3)] * 2, [(2, 1, True, 3)] * 2),
    "star_f3/regular_summand/0": (WHOLE, [(1, 3, 2, 3)] * 2, [(2, 1, True, 3)] * 2),
    "star_f3/regular_summand/1": ((0, 5), [(1, 1, 1, 2)] * 2, [(1, 0, True, 6)] * 2),
    "star_f3/regular_summand/2": ((0, 4), [(1, 1, 1, 2)] * 2, [(1, 0, True, 6)] * 2),
    "star_f3/regular_summand/3": ((0, 3), [(1, 1, 1, 2)] * 2, [(1, 0, True, 6)] * 2),
    "star_f5/simple/0": ((0, 5), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "star_f5/simple/1": ((0, 4), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "star_f5/simple/2": ((0, 3), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "star_f5/simple/3": (WHOLE, [(2, 2, 1, 2), (1, 1, 1, 1), (1, 1, 1, 1)],
                         [(1, 0, True, 2), (1, 0, True, 1), (1, 0, True, 1)]),
    "star_f5/regular_summand/0": (WHOLE, [(2, 2, 1, 2), (1, 1, 1, 1), (1, 1, 1, 1)],
                                  [(1, 0, True, 2), (1, 0, True, 1), (1, 0, True, 1)]),
    "star_f5/regular_summand/1": ((0, 5), [(1, 1, 1, 2)] * 2, [(1, 0, True, 6)] * 2),
    "star_f5/regular_summand/2": ((0, 4), [(1, 1, 1, 2)] * 2, [(1, 0, True, 6)] * 2),
    "star_f5/regular_summand/3": ((0, 3), [(1, 1, 1, 2)] * 2, [(1, 0, True, 6)] * 2),
    "cube_f5/simple/0": ((0, 5), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "cube_f5/simple/1": ((0, 4), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
    "cube_f5/simple/2": ((0, 3), [(1, 1, 1, 1)] * 2, [(1, 0, True, 3)] * 2),
}
PROPER_S3 = sorted(name for name, pin in S3_PINS.items() if pin[0] != WHOLE)


def s3_case(name):
    """(action, module) of an S3_PINS case: '<quiver>_f<p>/<kind>/<index>'."""
    quiver, kind, index = name.split("/")
    F = FF(int(quiver.split("_f")[1]))
    if quiver.startswith("star"):
        A, perms = make_path_algebra(F, 4, [(1, 0), (2, 0), (3, 0)]), STAR_PERMS
    else:
        A, perms = make_path_algebra(F, 3, []), CUBE_PERMS
    action = build_action(A, {"group": "S3", "kind": "basis_permutation", "perms": perms})
    return action, build_module(A, {"kind": kind, "index": int(index)})


# The module scenarios of the benchmark's orbit workload, read from its
# source without importing it as a package, the S3 and S4 cases above, and
# the proper-inertia cases: the S3 ones and the C4 character.
ORBIT_SCENARIOS = {
    name: doc for name, doc in runpy.run_path(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    )["ORBIT_SCENARIOS"].items() if "module" in doc
}
DIFFERENTIAL_CASES = (sorted(ORBIT_SCENARIOS) + ["S3/Mat3/F5", "S4/Mat4/F5"] + PROPER_S3
                      + ["c4_character"])


def differential_case(name):
    """(action, module) of an orbit-workload scenario, an S3_PINS case, the
    C4 character, the cyclic quiver or S_n on Mat_n/F5."""
    if name in ORBIT_SCENARIOS:
        doc = ORBIT_SCENARIOS[name]
        A = build_algebra(build_field(doc["field"]), doc["algebra"])
        return build_action(A, doc["action"]), build_module(A, doc["module"])
    if name in S3_PINS:
        return s3_case(name)
    if name == "c4_character":
        return c4_character_case()
    if name == "cycle_f5_c4":
        return cycle_case()
    A, action = symmetric_conjugation_action(int(name[1]), FF(5))
    return action, simple_modules(A)[0]


def cycle_case():
    """The projective at a vertex of the 4-cycle quiver over F5 with radical
    square zero, rotated by C4: trivial inertia, and Hom(M, gM) has
    dimensions 1, 0, 0, 1 by g, nonzero outside the inertia and not equal
    to Hom(M, g^-1 M)."""
    A = make_path_algebra(FF(5), 4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                          [(0, 1), (1, 2), (2, 3), (3, 0)])
    action = build_action(A, {"group": "C4", "kind": "basis_permutation",
                              "perm": [1, 2, 3, 0, 5, 6, 7, 4]})
    return action, build_module(A, {"kind": "regular_summand", "index": 0})


def same_family(mine, solved):
    """Two orbit hom spaces with the same objects, support, component
    targets and basis family, byte for byte."""
    assert (mine.source, mine.target, mine.support) == \
        (solved.source, solved.target, solved.support)
    assert all(mine.components[g].target == solved.components[g].target
               for g in solved.support)
    a, b = mine.family().stack, solved.family().stack
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES + ["cycle_f5_c4"])
def test_inertia_carried_homs_are_the_solved_ones(monkeypatch, name):
    """Component g of the raw family is hom_space(M, gM) byte for byte, a
    witness is what is_isomorphic(gM, M) returns, and every raw hom of a
    run is the orbit_hom it stands for, byte for byte: Hom_orbit(M, M)
    over the inertia for E_P and over the whole group for E_G, and
    Hom_orbit(M, gM) and Hom_orbit(gM, M) over the inertia for each
    outside check."""
    action, M = differential_case(name)
    ind = inertia(M, action)
    assert ind.raw.support == tuple(action.elements())
    for g in action.elements():
        gM = action.twisted(M, g)
        solved = hom_space(M, gM).basis
        mine = ind.raw.components[g].basis
        assert ind.raw.components[g].target == gM and len(mine) == len(solved)
        for a, b in zip(mine, solved):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        iso = is_isomorphic(gM, M)
        assert (g in ind.subgroup) == (iso is not None)
        if iso is not None:
            assert ind.witnesses[g].tobytes() == iso.tobytes()
    ends, checks = [], []
    kar_end, kar_iso = clifford_mod.kar_end_algebra, clifford_mod.kar_is_isomorphic

    def end_recording(P, raw):
        ends.append(raw)
        return kar_end(P, raw)

    def iso_recording(P, Q, raw_pq, raw_qp):
        checks.append((Q.module, raw_pq, raw_qp))
        return kar_iso(P, Q, raw_pq, raw_qp)

    monkeypatch.setattr(clifford_mod, "kar_end_algebra", end_recording)
    monkeypatch.setattr(clifford_mod, "kar_is_isomorphic", iso_recording)
    report = clifford_run(action, M)
    sub = ind.subgroup
    same_family(ends[0], orbit_hom(M, M, action, support=sub))
    if len(sub) < action.k:
        assert len(ends) == 2
        same_family(ends[1], orbit_hom(M, M, action))
    checked = [o["g"] for o in report.outside_checks if o["checked"]]
    assert len(checks) == len(checked)
    for g, (gM, raw_to, raw_from) in zip(checked, checks):
        assert gM == action.twisted(M, g)
        same_family(raw_to, orbit_hom(M, gM, action, support=sub))
        same_family(raw_from, orbit_hom(gM, M, action, support=sub))


def test_cycle_case_has_homs_outside_the_inertia():
    """The cyclic case is the one that tells Hom_orbit(M, gM) from
    Hom_orbit(gM, M) apart: both nonzero outside the inertia, at
    different group elements."""
    action, M = cycle_case()
    ind = inertia(M, action)
    assert ind.subgroup == (0,)
    assert [ind.raw.components[g].dim for g in action.elements()] == [1, 0, 0, 1]
    report = clifford_run(action, M)
    assert [(o["g"], o["checked"], o["distinct"]) for o in report.outside_checks] == \
        [(1, True, True), (2, True, True), (3, True, True)]


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_class_corners_from_e_p_match_the_compressed_corners(name):
    """A class corner e E_P e has the dimension and radical dimension of
    kar_end_algebra of its piece over a freshly solved orbit_hom, and the
    report carries those numbers.  When the inertia is the whole group,
    stage 2 reads the same corner.  Under a proper inertia, the stage-2
    corner e~ E_G e~ has the numbers of kar_end_algebra of the extended
    piece (M, e~) over the whole group, one Karoubi algebra per class, and
    the T-object of (M, e~) has the reported dimension."""
    action, M = differential_case(name)
    sub = inertia(M, action).subgroup
    raw = orbit_hom(M, M, action, support=sub)
    P = KarObject(action, M, support=sub)
    E_P, H = kar_end_algebra(P, raw)
    es = primitive_orthogonal_idempotents(E_P)
    pieces = kar_decompose(P, H, es)
    report = clifford_run(action, M)
    firsts = [es.labels.index(c) for c in range(max(es.labels) + 1)]
    assert len(report.stage1) == len(firsts)
    for s1, s2, i in zip(report.stage1, report.stage2, firsts):
        old, _ = kar_end_algebra(pieces[i], orbit_hom(M, M, action, support=sub))
        new, _ = corner_algebra(E_P, es.idempotents[i])
        J_old, J_new = radical(old), radical(new)
        assert (new.dim, len(J_new)) == (old.dim, len(J_old))
        assert s1.corner_dim == old.dim
        if len(sub) == action.k:
            assert (s2.corner_dim, s2.corner_radical_dim, s2.local) == \
                (old.dim, len(J_old), is_local(old))
            assert s2.materialized_dim == kar_functor_T(pieces[i]).dim
        else:
            ext = KarObject(action, M, sub_inclusion_S(pieces[i].idem, action, sub))
            E, _ = kar_end_algebra(ext, orbit_hom(M, M, action))
            J = radical(E)
            assert (s2.corner_dim, s2.corner_radical_dim, s2.local, s2.materialized_dim) == \
                (E.dim, len(J), is_local(E), kar_functor_T(ext).dim)


def count_hom_solves(monkeypatch):
    """hom_space calls as clifford and rep look it up, counted from now on
    under "hom_space", and under "at_kar_end_algebra" the count at each of
    clifford's kar_end_algebra calls."""
    counts = {"hom_space": 0, "at_kar_end_algebra": []}
    solve, kar_end = rep_mod.hom_space, clifford_mod.kar_end_algebra

    def solving(M, N):
        counts["hom_space"] += 1
        return solve(M, N)

    def snapshot(P, raw):
        counts["at_kar_end_algebra"].append(counts["hom_space"])
        return kar_end(P, raw)

    monkeypatch.setattr(rep_mod, "hom_space", solving)
    monkeypatch.setattr(clifford_mod, "hom_space", solving)
    monkeypatch.setattr(clifford_mod, "kar_end_algebra", snapshot)
    return counts


def distinct_twists(action, M):
    return len({action.twisted(M, g) for g in action.elements()})


def test_clifford_run_on_mat2f5_c4_solves_no_orbit_hom(monkeypatch):
    """Mat2/F5 under C4 acting by conjugation, the whole group in the
    inertia: the raw orbit hom is the family inertia solves, one hom_space
    call per distinct twist, and the one compressed corner is P's, so a
    run makes no other hom solve and one kar_end_algebra call."""
    # karoubi solves no hom space, and clifford no orbit hom: every raw hom
    # comes from the caller, or from the family inertia solves
    assert not hasattr(karoubi_mod, "orbit_hom") and not hasattr(karoubi_mod, "hom_space")
    assert not hasattr(clifford_mod, "orbit_hom")
    action, M = differential_case("mat2f5_c4")
    twists = distinct_twists(action, M)
    counts = count_hom_solves(monkeypatch)
    report = clifford_run(action, M)
    assert report.inertia_subgroup == tuple(action.elements())
    assert not report.outside_checks
    assert twists == 4
    assert counts == {"hom_space": twists, "at_kar_end_algebra": [twists]}


def test_kar_end_algebra_rejects_a_raw_hom_of_another_support():
    A, action = mat2_swap_action()
    M = column_module(A)
    P = KarObject(action, M, support=(0,))
    with pytest.raises(ValueError, match="support"):
        kar_end_algebra(P, orbit_hom(M, M, action))
    with pytest.raises(ValueError, match="modules"):
        kar_end_algebra(P, orbit_hom(action.twisted(M, 1), M, action, support=(0,)))


def test_clifford_run_rejects_a_restriction_with_a_non_copy(monkeypatch):
    """Stage 1 checks every summand of the restriction T(M, e) against M:
    with T(M, e) replaced by M + chi for a character chi not isomorphic
    to the trivial M, the run fails and names the non-copy."""
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    M, chi = character_module(A, F, 1), character_module(A, F, 2)
    monkeypatch.setattr(clifford_mod, "kar_functor_T", lambda piece: direct_sum([M, chi])[0])
    with pytest.raises(CliffordViolation, match="non-copy of M"):
        clifford_run(inversion_action(A), M)


@pytest.mark.parametrize("name", sorted(S3_PINS))
def test_s3_stage_tuples_and_oracle_are_pinned(name):
    """Every simple and regular summand of the S3 star quiver over F2, F3
    and F5, and the simples of F5^3: the stage tuples the run reports, and
    the oracle's verdict on them."""
    action, M = s3_case(name)
    report = clifford_run(action, M)
    stage1 = [(s.multiplicity, s.n_copies, s.corner_dim, s.restricted_dim)
              for s in report.stage1]
    stage2 = [(s.corner_dim, s.corner_radical_dim, s.local, s.materialized_dim)
              for s in report.stage2]
    assert (report.inertia_subgroup, stage1, stage2) == S3_PINS[name]
    assert oracle_compare(report, SkewContext(action))["match"] is True


@pytest.mark.parametrize("name", ["star_f2/simple/0", "star_f5/simple/0", "c4_character"])
def test_proper_inertia_builds_two_karoubi_algebras(monkeypatch, name):
    """Under a proper inertia a run makes two kar_end_algebra calls, E_P
    and E_G, with one class (F2 star) or two (F5 star, C4).  Every raw hom
    is solved before E_P, one hom_space call per distinct twist, and
    stage 2 and the outside checks solve none, whatever the number of
    classes."""
    action, M = differential_case(name)
    twists = distinct_twists(action, M)
    counts = count_hom_solves(monkeypatch)
    report = clifford_run(action, M)
    normalizing = {o["g"] for o in report.outside_checks if o["checked"]}
    assert len(report.inertia_subgroup) < action.k
    assert counts["at_kar_end_algebra"] == [twists, counts["hom_space"]]
    if name == "c4_character":
        assert len(report.stage1) == 2 and normalizing == {1, 3}


def test_skewfield_check_solves_end_once(monkeypatch):
    """The F7C3 character under inversion: the simplicity test and the
    inertia read one End(M), so skewfield_check makes one hom_space call
    per distinct twist (End(M) included) and none after its one
    kar_end_algebra call."""
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    chi = character_module(A, F, 2)
    counts = count_hom_solves(monkeypatch)
    assert skewfield_check(action, chi) == {"ok": True, "end_dim": 1}
    assert counts["at_kar_end_algebra"] == [distinct_twists(action, chi)] == [2]
    assert counts["hom_space"] == 2


def test_stage2_rejects_labels_that_merge_two_classes(monkeypatch):
    """F5 star, outer simple: stage 1 finds two classes.  Told that they
    are one class, the run fails the label check on E_G, which names both
    label lists."""
    original = clifford_mod.primitive_orthogonal_idempotents

    def merged(E):
        es = original(E)
        es.labels = [0 if label == 1 else label for label in es.labels]
        return es

    monkeypatch.setattr(clifford_mod, "primitive_orthogonal_idempotents", merged)
    action, M = s3_case("star_f5/simple/0")
    with pytest.raises(CliffordViolation, match=r"\[0, 0\] over the inertia, \[0, 1\]"):
        clifford_run(action, M)


def test_stage2_rejects_a_non_primitive_extension(monkeypatch):
    """F5 star, outer simple: with the second extension replaced by
    e0~ + e1~, an idempotent that is not primitive, the class test on E_G
    finds no inverse for the pair, or the labels disagree."""
    original = clifford_mod.sub_inclusion_S
    made = []

    def summed(f, action, sub):
        made.append(original(f, action, sub))
        if len(made) == 2:
            return made[1].with_stack(action.algebra.field.vadd(made[0].stack, made[1].stack))
        return made[-1]

    monkeypatch.setattr(clifford_mod, "sub_inclusion_S", summed)
    action, M = s3_case("star_f5/simple/0")
    with pytest.raises((CliffordViolation, CertificationError), match="0 and 1|labels"):
        clifford_run(action, M)
