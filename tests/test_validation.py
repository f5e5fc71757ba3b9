"""Batched validation of algebras, automorphisms and modules.

One structure constant of Mat_n is perturbed: e01 * e10 becomes 2 * e00
instead of e00.  Every validator must reject it and name the first failing
basis triple or pair, over an extension field and over a prime field with
more than 40 basis elements.
"""

import numpy as np
import pytest

from orbitcat import algebra as algebra_mod
from orbitcat.algebra import Algebra, AlgebraAut, make_matrix_algebra
from orbitcat.ffield import FF
from orbitcat.orbit import make_skew_group_algebra
from orbitcat.rep import Module
from orbitcat.scenarios import build_action

# (p, n, matrix size): F4 with Mat2, and F3 with Mat7 (dimension 49)
CASES = [(2, 2, 2), (3, 1, 7)]


def _perturbed(p, n, m):
    F = FF(p, n)
    A = make_matrix_algebra(m, F)
    struct = A.struct.copy()
    struct[1, m, 0] = 2  # e01 * e10 = 2 e00
    return F, A, struct


def _swap_conjugation(m):
    """Coordinate matrix of conjugation by the transposition (0 1)."""
    perm = [1, 0] + list(range(2, m))
    U = np.zeros((m * m, m * m), dtype=np.int64)
    for u in range(m):
        for v in range(m):
            U[perm[u] * m + perm[v], u * m + v] = 1
    return U


def _matrix_units(m):
    mats = []
    for u in range(m):
        for v in range(m):
            E = np.zeros((m, m), dtype=np.int64)
            E[u, v] = 1
            mats.append(E)
    return mats


@pytest.mark.parametrize("p,n,m", CASES)
def test_algebra_validate_names_failing_triple(p, n, m):
    F, A, struct = _perturbed(p, n, m)
    A.validate()  # the unperturbed algebra passes
    with pytest.raises(ValueError, match=rf"associativity fails on basis triple \(1, {m}, 1\)"):
        Algebra(F, struct, A.unit)


@pytest.mark.parametrize("p,n,m", CASES)
def test_algebra_aut_validate_names_failing_pair(p, n, m):
    F, A, struct = _perturbed(p, n, m)
    U = _swap_conjugation(m)
    AlgebraAut(A, U)
    B = Algebra(F, struct, A.unit, validate=False)
    with pytest.raises(ValueError, match=rf"not multiplicative on pair \(1, {m}\)"):
        AlgebraAut(B, U)


@pytest.mark.parametrize("p,n,m", CASES)
def test_module_validate_names_failing_pair(p, n, m):
    F, A, struct = _perturbed(p, n, m)
    Module(A, _matrix_units(m))
    B = Algebra(F, struct, A.unit, validate=False)
    with pytest.raises(ValueError, match=rf"violates structure constants at \(1, {m}\)"):
        Module(B, _matrix_units(m))


def test_large_skew_group_algebra_is_validated(monkeypatch):
    # Mat3 x| S3 has dimension 54; every builder validates what it builds
    seen = []
    original = Algebra.validate

    def spy(self):
        seen.append(self.dim)
        return original(self)

    monkeypatch.setattr(algebra_mod.Algebra, "validate", spy)
    A = make_matrix_algebra(3, FF(5))
    action = build_action(A, {"group": "S3", "kind": "trivial"})
    S = make_skew_group_algebra(action)
    assert S.dim == 54
    assert seen == [9, 54]
