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
    make_skew_group_algebra,
    make_twisted_group_ring,
    radical,
)
from orbitcat.ffield import FF
from orbitcat.linalg import is_invertible, kernel_basis, rref
from orbitcat.rep import (
    Module,
    ModuleMor,
    direct_sum,
    end_algebra,
    hom_space,
    quotient_module,
    random_base_change,
    regular_module,
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
            f7c3, build_action(f7c3, {"group": "C2", "kind": "inversion"})),
        "Mat2/F5 x| C2": make_skew_group_algebra(
            mat2, build_action(mat2, {"group": "C2", "kind": "conjugation",
                                      "matrix": [[0, 1], [1, 0]]})),
        "F4 x| C2 over F2": make_twisted_group_ring(2, 2, cyclic_table(2), [0, 1]),
    }


BUILDERS = _builders()


def _basis_hom(M, N):
    """Hom(M, N) as the canonical echelon kernel of the all-basis system:
    one Kronecker block per basis element."""
    F = M.field
    m, n = M.dim, N.dim
    blocks = [F.vsub(np.kron(b, np.eye(m, dtype=np.int64)),
                     np.kron(np.eye(n, dtype=np.int64), a.T))
              for a, b in zip(M.mats, N.mats)]
    K = kernel_basis(F, np.concatenate(blocks))
    if not K:
        return np.zeros((0, n * m), dtype=np.int64)
    R, piv = rref(F, np.stack(K))
    return R[: len(piv)]


def _basis_module_check(M):
    """rho(b_i) rho(b_j) = rho(b_i b_j) for every basis pair."""
    A, F = M.algebra, M.field
    stack = M.stack()
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


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2 ** 32 - 1))
def test_hom_space_matches_all_basis_system(name, seed):
    A = BUILDERS[name]
    rng = np.random.default_rng(seed)
    M, N = _random_module(A, rng), _random_module(A, rng)
    H = hom_space(M, N)
    got = np.asarray(H.basis, dtype=np.int64).reshape(len(H.basis), M.dim * N.dim)
    assert np.array_equal(got, _basis_hom(M, N))


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
        R, piv = rref(F, np.stack(kernel_basis(F, big.T)))
        assert np.array_equal(center_basis(A), R[: len(piv)])


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
    lambda F: make_twisted_group_ring(F.q, 1, [[0]], [0]),
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

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(algebra_mod, "charpoly_batched", counting)
    assert len(radical(E, certify=False)) == 0
    once = len(calls)
    assert once > 0
    calls.clear()
    assert len(radical(E)) == 0
    assert len(calls) == once
