"""Generating sets: the builders' generators, their closure certificate,
and every check that runs over them instead of over the basis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcat import algebra as algebra_mod
from orbitcat.algebra import (
    Algebra,
    AlgebraAut,
    center_basis,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    radical,
)
from orbitcat.ffield import FF
from orbitcat.linalg import is_invertible, kernel_basis, rref
from orbitcat.oracle import frobenius_action
from orbitcat.orbit import make_skew_group_algebra
from orbitcat.rep import (
    Module,
    ModuleMor,
    direct_sum,
    end_algebra,
    hom_space,
    hom_system,
    quotient_module,
    random_base_change,
    regular_module,
    simple_modules,
    submodule_span,
)
from orbitcat.scenarios import build_action, group_table


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _builders():
    """One algebra per builder, small enough for an all-basis reference."""
    mat2 = make_matrix_algebra(2, FF(5))
    f7c3 = make_group_algebra(cyclic_table(3), FF(7))
    return {
        "F3C3": make_group_algebra(cyclic_table(3), FF(3)),
        "F2 Klein": make_group_algebra(group_table("C2xC2"), FF(2)),
        "Mat2/F4": make_matrix_algebra(2, FF(2, 2)),
        "Kronecker/F3": make_path_algebra(FF(3), 2, [(0, 1), (0, 1)]),
        "A3 path/F5": make_path_algebra(FF(5), 3, [(0, 1), (1, 2)]),
        "F7C3 x| C2": make_skew_group_algebra(
            build_action(f7c3, {"group": "C2", "kind": "inversion"})),
        "Mat2/F5 x| C2": make_skew_group_algebra(
            build_action(mat2, {"group": "C2", "kind": "conjugation",
                                "matrix": [[0, 1], [1, 0]]})),
        "F4 x| C2 over F2": make_skew_group_algebra(
            frobenius_action(2, 2, cyclic_table(2), [0, 1])),
    }


BUILDERS = _builders()


def _kronecker_stack(F, GM, GN):
    """The blocks (N_g (x) I_m) - (I_n (x) M_g^T), stacked in order."""
    m, n = GM.shape[1], GN.shape[1]
    blocks = [F.vsub(np.kron(b, np.eye(m, dtype=np.int64)), np.kron(np.eye(n, dtype=np.int64), a.T))
              for a, b in zip(GM, GN)]
    return np.concatenate(blocks + [np.zeros((0, n * m), dtype=np.int64)])


def _basis_hom(M, N):
    """Hom(M, N) as the canonical echelon kernel of the all-basis system:
    one Kronecker block per basis element."""
    K = kernel_basis(M.field, _kronecker_stack(M.field, M.mats, N.mats))
    if not K:
        return np.zeros((0, N.dim * M.dim), dtype=np.int64)
    return rref(M.field, np.stack(K))[0]


def _basis_module_check(M):
    """rho(b_i) rho(b_j) = rho(b_i b_j) for every basis pair."""
    A, F = M.algebra, M.field
    stack = M.mats
    for i in range(A.dim):
        assert np.array_equal(F.vmatmul(stack[i], stack), F.combine(A.struct[i], stack))


def _random_module(A, rng):
    """A random base change of a sum of the regular module and quotients of
    it by random cyclic submodules."""
    R = regular_module(A)
    parts = []
    for _ in range(rng.integers(1, 3)):
        if rng.integers(0, 2):
            parts.append(R)
        else:
            v = rng.integers(0, A.field.q, size=A.dim)
            S = submodule_span(R, v) if v.any() else np.zeros((0, A.dim), dtype=np.int64)
            parts.append(quotient_module(R, S) if len(S) < A.dim else R)
    M = direct_sum(parts)[0] if len(parts) > 1 else parts[0]
    M = random_base_change(M, rng)
    _basis_module_check(M)
    return M


def _permuted(M, rng):
    """M on a permuted basis: as sparse as M, unlike a random base change."""
    perm = rng.permutation(M.dim)
    return Module(M.algebra, [m[perm][:, perm] for m in M.mats], validate=False)


def _killed_simples(A):
    """The simple modules on which some generator of A acts as zero."""
    return [S for S in simple_modules(A) if not S.gen_mats().any(axis=(1, 2)).all()]


KILLED = {name: _killed_simples(A) for name, A in BUILDERS.items()}


def _sparse_module(A, name, rng):
    """The regular module on a permuted basis, in a direct sum with a
    module on which a generator acts as zero when A has one."""
    P = _permuted(regular_module(A), rng)
    if not KILLED[name] or rng.integers(0, 2):
        return P
    S = KILLED[name][rng.integers(0, len(KILLED[name]))]
    return _permuted(direct_sum([P, S])[0], rng)


def test_sparse_modules_reach_zero_rows():
    """The sparse draws below meet structurally zero rows: the path algebras
    have simples on which an arrow acts as zero, and on the regular module
    of each algebra with a nilpotent generator that generator has a zero row."""
    assert {name for name, S in KILLED.items() if S} == {"Kronecker/F3", "A3 path/F5"}
    zero_rows = {name for name, A in BUILDERS.items()
                 if not regular_module(A).gen_mats().any(axis=2).all()}
    assert zero_rows == {"Mat2/F4", "Kronecker/F3", "A3 path/F5", "Mat2/F5 x| C2"}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BUILDERS)), sparse=st.tuples(st.booleans(), st.booleans()),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hom_space_matches_all_basis_system(name, sparse, seed):
    A = BUILDERS[name]
    rng = np.random.default_rng(seed)
    M, N = (_sparse_module(A, name, rng) if s else _random_module(A, rng) for s in sparse)
    H = hom_space(M, N)
    got = np.asarray(H.basis, dtype=np.int64).reshape(len(H.basis), M.dim * N.dim)
    assert np.array_equal(got, _basis_hom(M, N))


def _kronecker_rows(F, GM, GN, lm, ln):
    """The Kronecker stack on the kept columns (c, b), ln[c] == lm[b],
    without its rows (g, a, b) that are zero on them by construction: no
    N_g[a, c] != 0 with (c, b) kept and no M_g[e, b] != 0 with (a, e) kept."""
    keep = ln[:, None] == lm
    live = ((GN != 0) @ keep) | (keep @ (GM != 0))
    return _kronecker_stack(F, GM, GN)[live.reshape(-1)][:, keep.reshape(-1)]


def _flat(m):
    """Constant labels: every unknown of an m-coordinate side is kept."""
    return np.zeros(m, dtype=np.int64)


def _check_hom_system(F, GM, GN, lm, ln):
    got = hom_system(F, GM, GN, lm, ln)
    expected = _kronecker_rows(F, GM, GN, lm, ln)
    assert got.shape == (len(expected), np.count_nonzero(ln[:, None] == lm))
    assert sorted(map(bytes, got)) == sorted(map(bytes, expected))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([(5, 1), (2, 2), (3, 2)]), g=st.integers(0, 3),
       m=st.integers(1, 5), n=st.integers(1, 5), zeros=st.sampled_from([0.0, 0.5, 0.8]),
       pieces=st.integers(0, 3), disjoint=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_hom_system_matches_kronecker_formula(field, g, m, n, zeros, pieces, disjoint, seed):
    """The system holds exactly the Kronecker rows that are not zero by
    construction on the kept columns, as a multiset.  pieces = 0 draws
    constant labels, otherwise random labels over that many pieces;
    disjoint moves the target's labels off the source's, so no column is
    kept."""
    F = FF(*field)
    rng = np.random.default_rng(seed)
    GM = rng.integers(0, F.q, size=(g, m, m)) * (rng.random((g, m, m)) >= zeros)
    GN = rng.integers(0, F.q, size=(g, n, n)) * (rng.random((g, n, n)) >= zeros)
    lm, ln = (rng.integers(0, pieces, size=k) if pieces else _flat(k) for k in (m, n))
    if disjoint:
        ln = ln + 3
    _check_hom_system(F, GM, GN, lm, ln)


def test_hom_system_leaves_out_structurally_zero_rows():
    F = FF(3)
    # M_0 has a zero column (1) and a zero row (2); N_0 has a zero row (0)
    M_0 = np.array([[0, 0, 1], [2, 0, 0], [0, 0, 0]])
    N_0 = np.array([[0, 0], [1, 2]])
    # M_1 = 0 and N_1 = 0: no row at all; M_2 = 0 beside N_2 without zero rows:
    # N_2's rows over every b; no zero row or column in M_3, N_3: the whole block
    Z2, Z3 = np.zeros((2, 2), dtype=np.int64), np.zeros((3, 3), dtype=np.int64)
    N_2, N_3 = np.array([[1, 1], [0, 2]]), np.array([[1, 1], [2, 0]])
    M_3 = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 2]])
    GM, GN = np.stack([M_0, Z3, Z3, M_3]), np.stack([N_0, Z2, N_2, N_3])
    lm, ln = _flat(3), _flat(2)
    _check_hom_system(F, GM, GN, lm, ln)
    # generator 0: a = 1 for each of 3 b, and a = 0 for b in {0, 2};
    # generator 1 none; generators 2 and 3: 2 x 3 each
    assert len(hom_system(F, GM, GN, lm, ln)) == (3 + 2) + 0 + 6 + 6
    # the kernel is that of the full system
    assert np.array_equal(rref(F, hom_system(F, GM, GN, lm, ln))[0],
                          rref(F, _kronecker_stack(F, GM, GN))[0])
    # without a zero row in any N_g the system is the full stack, in order
    dense = GM[[3, 0]], GN[[3, 2]]
    np.testing.assert_array_equal(hom_system(F, *dense, lm, ln), _kronecker_stack(F, *dense))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_regular_rep_is_the_stack_of_left_multiplications(name):
    """regular_rep() is struct transposed: byte for byte the stack of
    left_mult_matrix(b_i) over the basis, on every builder (group, matrix,
    path, skew group and Galois)."""
    A = BUILDERS[name]
    R = A.regular_rep()
    want = np.stack([A.left_mult_matrix(b) for b in A.field.eye(A.dim)])
    assert R.dtype == want.dtype and R.shape == want.shape
    assert np.ascontiguousarray(R).tobytes() == want.tobytes()


def test_builders_supply_few_generators():
    F = FF(3)
    assert len(make_group_algebra(cyclic_table(3), F).generators) == 1
    assert len(make_group_algebra(cyclic_table(9), F).generators) == 1
    assert len(make_group_algebra(group_table("C2xC2"), FF(2)).generators) == 2
    assert len(make_group_algebra(group_table("S3"), F).generators) == 2
    assert len(make_matrix_algebra(6, F).generators) == 10
    assert len(BUILDERS["Kronecker/F3"].generators) == 4  # 2 vertices, 2 arrows
    assert len(BUILDERS["Mat2/F5 x| C2"].generators) == 3  # e01, e10, 1 (x) s
    assert len(BUILDERS["F4 x| C2 over F2"].generators) == 2  # x (x) e, 1 (x) s
    # an algebra built from structure constants alone is generated by its basis
    A = make_matrix_algebra(2, F)
    assert np.array_equal(Algebra(F, A.struct, A.unit).generators, F.eye(4))


def test_center_by_generators_matches_all_basis_commutant():
    for A in BUILDERS.values():
        F, d = A.field, A.dim
        big = F.vsub(A.struct, A.struct.transpose(1, 0, 2)).reshape(d, d * d)
        assert np.array_equal(center_basis(A), rref(F, np.stack(kernel_basis(F, big.T)))[0])


def test_wrong_generators_raise():
    F = FF(3)
    A = make_matrix_algebra(3, F)
    e01 = F.eye(9)[[1]]
    for validate in (True, False):
        with pytest.raises(ValueError, match="generators do not generate the algebra"):
            Algebra(F, A.struct, A.unit, generators=e01, validate=validate)
    # e01 and e10 generate Mat2 but only a corner of Mat3
    with pytest.raises(ValueError, match="do not generate"):
        Algebra(F, A.struct, A.unit, generators=F.eye(9)[[1, 3]])
    Algebra(F, A.struct, A.unit, generators=A.generators)


# Mat3 on the basis e_uv = index 3u + v, generated by e01, e12, e10, e21 in
# that order.  Each defect below sits at e20 = index 6, which is no
# generator, and only the third or fourth generator exposes it.
E20 = 6


@pytest.fixture
def mat3():
    return make_matrix_algebra(3, FF(3))


def test_algebra_validate_rejects_defect_off_the_generators(mat3):
    F = mat3.field
    struct = mat3.struct.copy()
    struct[E20, 2, 0] = 1  # e20 * e02 = e22 + e00
    with pytest.raises(ValueError, match="associativity fails on basis triple") as err:
        Algebra(F, struct, mat3.unit, generators=mat3.generators)
    # the named triple is a real counterexample
    i, j, k = (int(t) for t in str(err.value).split("(")[1].rstrip(")").split(","))
    bad = Algebra(F, struct, mat3.unit, validate=False)
    eye = F.eye(9)
    assert not np.array_equal(bad.mul_vec(bad.mul_vec(eye[i], eye[j]), eye[k]),
                              bad.mul_vec(eye[i], bad.mul_vec(eye[j], eye[k])))


def test_algebra_aut_validate_rejects_defect_off_the_generators(mat3):
    U = mat3.field.eye(9)
    U[0, E20] = 1  # e20 -> e20 + e00, still invertible and fixing the unit
    assert is_invertible(mat3.field, U)
    with pytest.raises(ValueError, match="not multiplicative"):
        AlgebraAut(mat3, U)


def test_module_validate_rejects_defect_off_the_generators(mat3):
    mats = [m.copy() for m in regular_module(mat3).mats]
    Module(mat3, mats)
    mats[E20][0, 0] = 1
    with pytest.raises(ValueError, match="violates structure constants"):
        Module(mat3, mats)


def test_module_mor_validate_rejects_defect_off_the_generators(mat3):
    R = regular_module(mat3)
    ModuleMor(R, R, mat3.field.eye(9)).validate()
    f = mat3.field.eye(9)
    f[0, E20] = 1  # the basis vector e20 goes to e20 + e00
    with pytest.raises(ValueError, match="not an intertwiner"):
        ModuleMor(R, R, f).validate()


@pytest.mark.parametrize("make", [
    lambda F: make_group_algebra([[0]], F),
    lambda F: make_matrix_algebra(1, F),
    lambda F: make_skew_group_algebra(frobenius_action(F.q, 1, [[0]], [0])),
], ids=["F C1", "Mat1", "twisted deg 1"])
def test_algebra_generated_by_its_unit(make):
    F = FF(5)
    A = make(F)
    assert A.dim == 1 and A.generators.shape == (0, 1)
    M = Module(A, [F.eye(2)])
    N = Module(A, [F.eye(3)])
    assert hom_space(M, N).dim == 6  # no constraint: all of Hom
    assert hom_space(N, N).dim == 9
    ModuleMor(M, N, np.ones((3, 2), dtype=np.int64)).validate()
    with pytest.raises(ValueError, match="unit does not act"):
        Module(A, [2 * F.eye(2)])
    assert len(radical(A)) == 0


def test_zero_radical_runs_the_chain_once(monkeypatch):
    """A zero radical is returned without rerunning the chain on A/0 = A."""
    E, _ = end_algebra(regular_module(make_matrix_algebra(3, FF(3))))
    calls = []
    original = algebra_mod.charpoly_batched

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra_mod, "charpoly_batched", counting)
    assert len(radical(E, certify=False)) == 0
    once = len(calls)
    assert once > 0
    calls.clear()
    assert len(radical(E)) == 0
    assert len(calls) == once
