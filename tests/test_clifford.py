import itertools
import math

import numpy as np
import pytest

from orbitcat import algebra as algebra_mod, clifford as clifford_mod, karoubi as karoubi_mod
from orbitcat.algebra import (
    AlgebraAut,
    make_group_algebra,
    make_matrix_algebra,
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
from orbitcat.orbit import GroupAction
from orbitcat.rep import (
    Module,
    decompose,
    direct_sum,
    quotient_module,
    random_base_change,
    regular_module,
    simple_modules,
    submodule_span,
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
    from orbitcat.oracle import SkewContext, oracle_compare
    from orbitcat.scenarios import GROUP_TABLES, inversion_permutation_aut

    F = FF(5)
    A = make_group_algebra(GROUP_TABLES["C4"], F)
    inv = inversion_permutation_aut(A)
    ident = AlgebraAut(A, np.eye(4, dtype=np.int64))
    action = GroupAction(A, GROUP_TABLES["C4"], [ident, inv, ident, inv])
    chi = Module(A, [np.array([[F.pow(2, i)]], dtype=np.int64) for i in range(4)])
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
    """Stage 2 of clifford_run, is_simple and skewfield_check hand the
    radical they certified to is_local, which then does not compute it
    again.  Counted per algebra object on the Mat2/F5 simple module under
    the swap, and on a 3-dim simple of F2C7 under inversion: its End is
    F8, so all three sites see algebras of dimension 3, where is_local has
    no 1-dimensional shortcut."""
    certified = []  # holds the algebras, so no id is reused
    original = algebra_mod.radical

    def counting(A, certify=True):
        if certify:
            certified.append(A)
        return original(A, certify)

    monkeypatch.setattr(algebra_mod, "radical", counting)
    monkeypatch.setattr(clifford_mod, "radical", counting)
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
    assert certified and len({id(E) for E in certified}) == len(certified)


def test_clifford_run_builds_each_karoubi_corner_once(monkeypatch):
    """Stage 1 passes its corners forward, so no compressed hom basis is
    built twice for one pair of objects: on the Mat2/F5 simple under the
    swap and the trivial F7C3 module under inversion (whole-group inertia,
    two classes), on an order-4 character of F5[C4] (inertia {0, 2}, with
    outside checks) and on a character with trivial inertia (one piece)."""
    from orbitcat.scenarios import GROUP_TABLES, inversion_permutation_aut

    pairs = []  # holds the objects, so no id is reused
    original = karoubi_mod._kar_basis

    def counting(P, Q):
        pairs.append((P, Q))
        return original(P, Q)

    monkeypatch.setattr(karoubi_mod, "_kar_basis", counting)
    A, action = mat2_swap_action()
    F7C3 = make_group_algebra(cyclic_table(3), FF(7))
    F = FF(5)
    C4 = make_group_algebra(GROUP_TABLES["C4"], F)
    ident = AlgebraAut(C4, np.eye(4, dtype=np.int64))
    inv = inversion_permutation_aut(C4)
    c4_action = GroupAction(C4, GROUP_TABLES["C4"], [ident, inv, ident, inv])
    cases = [
        (action, column_module(A)),
        (inversion_action(F7C3), character_module(F7C3, FF(7), 1)),
        (c4_action, Module(C4, [np.array([[F.pow(2, i)]], dtype=np.int64) for i in range(4)])),
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
    E, H = kar_end_algebra(P)
    for p in kar_decompose(P, H, primitive_orthogonal_idempotents(E)):
        hit = next((c for c in classes if kar_is_isomorphic(c[0], p) is not None), None)
        if hit is None:
            classes.append([p])
        else:
            hit.append(p)
    monkeypatch.setattr(clifford_mod, "kar_is_isomorphic", None)
    report = clifford_run(action, M)
    assert [(s.multiplicity, s.n_copies) for s in report.stage1] == stage1
    assert [s.multiplicity for s in report.stage1] == [len(c) for c in classes]
    assert [s.restricted_dim for s in report.stage1] == [kar_functor_T(c[0]).dim for c in classes]
