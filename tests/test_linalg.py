from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from orbitcat.ffield import FF
from orbitcat.linalg import (
    SpanSolver,
    charpoly_batched,
    inverse,
    kernel_basis,
    min_poly,
    rank,
    rref,
    solve,
)
from orbitcat.poly import Poly


def test_kernel_identity_empty():
    F = FF(5)
    assert kernel_basis(F, F.eye(3)) == []


def test_kernel_zero_matrix():
    F = FF(5)
    ker = kernel_basis(F, F.zeros((2, 2)))
    assert len(ker) == 2
    assert np.array_equal(ker[0], [1, 0])
    assert np.array_equal(ker[1], [0, 1])


def test_kernel_rank_one_mod5():
    F = FF(5)
    m = np.array([[1, 2], [2, 4]])
    ker = kernel_basis(F, m)
    assert len(ker) == 1
    v = ker[0]
    assert np.array_equal(v, [3, 1])
    assert np.array_equal(F.vmatmul(m, v), F.zeros(2))
    assert rank(F, m) == 1


def test_solve_identity_and_zero():
    F = FF(7)
    b = np.array([[3], [4]])
    assert np.array_equal(solve(F, F.eye(2), b), b)
    assert solve(F, F.zeros((2, 2)), b) is None


def test_solve_triangular_mod3():
    F = FF(3)
    a = np.array([[1, 1], [0, 1]])
    b = np.array([[2], [1]])
    x = solve(F, a, b)
    assert np.array_equal(x, [[1], [1]])
    assert np.array_equal(F.vmatmul(a, x), b)


def test_min_poly_examples():
    F = FF(7)
    assert min_poly(F, F.eye(3)) == Poly(F, (6, 1))  # t - 1
    nil = np.array([[0, 1], [0, 0]])
    assert min_poly(F, nil) == Poly(F, (0, 0, 1))  # t^2
    d = np.array([[1, 0], [0, 2]])
    # (t-1)(t-2) = t^2 - 3t + 2
    assert min_poly(F, d) == Poly(F, (2, 4, 1))


def test_char_poly_companion():
    F = FF(5)
    # companion matrix of t^3 + 2t + 1
    C = np.array([[0, 0, 4], [1, 0, 3], [0, 1, 0]])
    cp = charpoly_batched(F, C[None])[0]
    assert cp.tolist() == [1, 0, 2, 1]  # descending powers


def test_char_poly_cayley_hamilton_random():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5, 7):
        F = FF(p)
        for m in (1, 2, 3, 5):
            A = rng.integers(0, p, size=(m, m))
            cp = charpoly_batched(F, A[None])[0]
            acc = F.zeros((m, m))
            for c in cp:
                acc = F.vmatmul(acc, A)
                acc = F.vadd(acc, F.vmul(int(c), F.eye(m)))
            assert not acc.any()
            assert len(cp) == m + 1 and cp[0] == 1


def test_char_poly_det_trace_consistency():
    F = FF(7)
    rng = np.random.default_rng(5)
    A = rng.integers(0, 7, size=(4, 4))
    cp = charpoly_batched(F, A[None])[0]
    # trace = -coefficient of t^3
    assert F.neg(int(cp[1])) == int(A.trace()) % 7


@given(
    st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4)]),
    st.integers(min_value=2, max_value=4),  # batch
    st.integers(min_value=0, max_value=12),  # m
    st.integers(min_value=1, max_value=14),  # terms, clipped to m + 2 below
    st.integers(min_value=0, max_value=10 ** 6),
)
@example((3, 1), 2, 9, 4, 0)  # the p = 3 radical stage on 9x9 products
@example((2, 2), 3, 5, 7, 1)  # terms beyond m + 1
@example((5, 1), 2, 6, 1, 2)
@example((2, 4), 2, 6, 2, 3)
@example((3, 2), 2, 0, 2, 4)  # 0x0 matrices
@settings(max_examples=80, deadline=None)
def test_charpoly_truncation_is_the_prefix(field, N, m, t, seed):
    """The leading t coefficients equal those of the full polynomial, and
    t > m + 1 returns the whole polynomial."""
    F = FF(*field)
    t = min(t, m + 2)
    A = np.random.default_rng(seed).integers(0, F.q, size=(N, m, m))
    full = charpoly_batched(F, A)
    assert full.shape == (N, m + 1)
    assert np.array_equal(charpoly_batched(F, A, t), full[:, :t])


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=40, deadline=None)
def test_charpoly_leading_coefficients_are_principal_minor_sums(p, m, seed):
    """Coefficient t of det(x - A) is (-1)^t times the sum of the principal
    t x t minors of A, each a sympy determinant reduced mod p."""
    F = FF(p)
    A = np.random.default_rng(seed).integers(0, p, size=(2, m, m))
    T = min(3, m) + 1
    got = charpoly_batched(F, A, T)
    for a, coeffs in zip(A, got):
        for t in range(1, T):
            minors = sum(sympy.Matrix(a[np.ix_(idx, idx)].tolist()).det()
                         for idx in combinations(range(m), t))
            assert coeffs[t] == (-1) ** t * int(minors) % p


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(p, r, c, seed):
    F = FF(p)
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(r, c))
    assert rank(F, M) + len(kernel_basis(F, M)) == c


def test_min_poly_annihilates_random():
    rng = np.random.default_rng(11)
    for p, n in [(5, 1), (3, 2)]:
        F = FF(p, n)
        for m in (2, 3, 4):
            A = rng.integers(0, F.q, size=(m, m))
            mp = min_poly(F, A)
            acc = F.zeros((m, m))
            for c in reversed(mp.codes):
                acc = F.vmatmul(acc, A)
                acc = F.vadd(acc, F.vmul(c, F.eye(m)))
            assert not acc.any()
            # minimality: no proper monic divisor annihilates
            assert mp.degree >= 1


def test_inverse_round_trip():
    F = FF(7)
    A = np.array([[1, 2], [3, 4]])
    Ainv = inverse(F, A)
    assert np.array_equal(F.vmatmul(A, Ainv), F.eye(2))
    with pytest.raises(ValueError):
        inverse(F, np.array([[1, 2], [2, 4]]))


def test_span_solver_coords():
    F = FF(5)
    rows = np.array([[1, 2, 0], [0, 1, 1]])
    S = SpanSolver(F, rows)
    v = F.vadd(F.vmul(2, rows[0]), F.vmul(3, rows[1]))
    coords = S.coords(v)
    # coords are relative to the echelonized basis; re-expand to check
    recon = F.zeros(3)
    for c, row in zip(coords, S.basis):
        recon = F.vadd(recon, F.vmul(int(c), row))
    assert np.array_equal(recon, v)
    assert not S.contains(np.array([0, 0, 1]) * 0 + np.array([1, 0, 4]))


@given(
    st.sampled_from([(7, 1), (2, 2)]),
    st.integers(min_value=0, max_value=4),  # spanning rows; 0 is the empty span
    st.integers(min_value=0, max_value=3),  # random rows to reduce
    st.integers(min_value=0, max_value=3),  # rows drawn from the span
    st.integers(min_value=1, max_value=5),  # width
    st.integers(min_value=0, max_value=10 ** 6),
)
@example((7, 1), 0, 2, 2, 3, 0)  # empty span: the in-span rows are zero rows
@example((2, 2), 3, 0, 0, 4, 1)  # nothing to reduce
@example((2, 2), 2, 1, 2, 4, 2)
@settings(max_examples=80, deadline=None)
def test_span_solver_residual(field, k, n_random, n_inside, width, seed):
    F = FF(*field)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, F.q, size=(k, width))
    inside = F.combine(rng.integers(0, F.q, size=(n_inside, k)), rows)
    V = np.concatenate([rng.integers(0, F.q, size=(n_random, width)), inside])
    S = SpanSolver(F, rows)
    res = S.residual(V)
    assert res.shape == V.shape
    assert not res[:, S.pivots].any()
    assert not S.residual(inside).any()
    # V - residual(V) lies in the span: appending it leaves the rank alone
    assert rank(F, np.concatenate([rows, F.vsub(V, res)])) == S.dim
    for v, r in zip(V, res):
        in_span = rank(F, np.concatenate([rows, v[None, :]])) == S.dim
        assert in_span == (not r.any()) == S.contains(v)
        if not in_span:
            with pytest.raises(ValueError):
                S.coords(v)
    if res.any():
        with pytest.raises(ValueError):
            S.batch_coords(V)
    else:
        assert np.array_equal(F.vmatmul(S.batch_coords(V), S.basis), V)


def _rref_input(F, spec):
    """A random matrix with about the given share of nonzero entries,
    tall * cols + extra rows high, then some rows set to zero and some
    rows copied over others."""
    cols, tall, extra, density, zero_rows, dup_rows, seed = spec
    rows = tall * cols + extra
    rng = np.random.default_rng(seed)
    M = rng.integers(1, F.q, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    if rows:
        M[rng.integers(0, rows, zero_rows)] = 0
        M[rng.integers(0, rows, dup_rows)] = M[rng.integers(0, rows, dup_rows)]
    return M


_RREF_INPUTS = st.tuples(
    st.integers(min_value=0, max_value=7),  # cols
    st.sampled_from([0, 4, 6]),  # tall
    st.integers(min_value=0, max_value=7),  # extra
    st.sampled_from([0.05, 0.3, 1.0]),  # density
    st.integers(min_value=0, max_value=3),  # zero rows
    st.integers(min_value=0, max_value=3),  # duplicate rows
    st.integers(min_value=0, max_value=10 ** 6),
)


@given(
    st.sampled_from([(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 4)]),
    st.sampled_from([  # shapes of X, c and Y
        ((5,), (), (5,)),  # a scalar coefficient
        ((4, 5), (4, 1), (5,)),  # the elimination step: a column times a row
        ((4, 5), (4, 1), (4, 5)),  # a column times a stack of rows
        ((4, 5), (4, 5), (1, 5)),
        ((5,), (4, 1), (1, 5)),  # X broadcast too
    ]),
    st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=60, deadline=None)
def test_vsubmul_matches_vsub_of_vmul(field, shapes, seed):
    F = FF(*field)
    rng = np.random.default_rng(seed)
    X, c, Y = (rng.integers(0, F.q, size=s) * (rng.random(s) < 0.7) for s in shapes)
    if c.ndim == 0:
        c = int(c)
    got = F.vsubmul(X, c, Y)
    assert got.shape == np.broadcast_shapes(*shapes)
    assert np.array_equal(got, F.vsub(X, F.vmul(c, Y)))


def _checked_rref(F, M):
    """rref(F, M), after checking that it leaves M alone and returns only
    the echelon rows, in memory of its own."""
    before = M.copy()
    R, piv = rref(F, M)
    assert np.array_equal(M, before)
    assert R.shape == (len(piv), M.shape[1])
    assert not np.shares_memory(R, M)
    return R, piv


def _rref_reference(F, M):
    """Gauss-Jordan on Python lists with scalar field operations, pivot on
    the first nonzero entry of each column."""
    R = [[int(x) for x in row] for row in M]
    piv = []
    for c in range(M.shape[1]):
        i = next((i for i in range(len(piv), len(R)) if R[i][c]), None)
        if i is None:
            continue
        r = len(piv)
        R[r], R[i] = R[i], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for j in range(len(R)):
            if j != r and R[j][c]:
                f = R[j][c]
                R[j] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[j], R[r])]
        piv.append(c)
    return np.array(R[: len(piv)], dtype=np.int64).reshape(len(piv), M.shape[1]), piv


@given(st.sampled_from([2, 3, 5, 7]), _RREF_INPUTS)
@example(3, (0, 0, 3, 1.0, 0, 0, 0))  # 3 x 0
@example(3, (5, 0, 0, 1.0, 0, 0, 0))  # 0 x 5
@example(3, (6, 6, 4, 0.05, 2, 3, 1))  # tall sparse, zero and duplicate rows
@example(2, (4, 0, 5, 1.0, 5, 0, 2))  # every row zero
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy_over_prime_fields(p, spec):
    F = FF(p)
    M = _rref_input(F, spec)
    R, piv = _checked_rref(F, M)
    K = GF(p)
    S, spiv = DomainMatrix([[K(int(x)) for x in row] for row in M], M.shape, K).rref()
    expected = np.array([[int(x) % p for x in row] for row in S.to_list()],
                        dtype=np.int64).reshape(M.shape)
    assert piv == list(spiv)
    assert np.array_equal(R, expected[: len(piv)])


@given(st.sampled_from([(2, 2), (3, 2), (2, 4)]), _RREF_INPUTS)
@example((2, 4), (0, 0, 3, 1.0, 0, 0, 0))  # 3 x 0
@example((3, 2), (5, 0, 0, 1.0, 0, 0, 0))  # 0 x 5
@example((2, 4), (6, 6, 4, 0.05, 2, 3, 1))  # tall sparse, zero and duplicate rows
@example((2, 2), (4, 0, 5, 1.0, 5, 0, 2))  # every row zero
@settings(max_examples=120, deadline=None)
def test_rref_over_extension_fields(field, spec):
    """Over F4, F9 and F16: R is in reduced echelon form, every row of M is
    M[:, piv] @ R, and R equals a scalar Gauss-Jordan reference."""
    F = FF(*field)
    M = _rref_input(F, spec)
    R, piv = _checked_rref(F, M)
    assert piv == sorted(set(piv))
    assert np.array_equal(R[:, piv], F.eye(len(piv)))
    for i, c in enumerate(piv):
        assert not R[i, :c].any()
    assert not F.vsub(M, F.vmatmul(M[:, piv], R)).any()
    ref, ref_piv = _rref_reference(F, M)
    assert piv == ref_piv and np.array_equal(R, ref)


def test_rref_deterministic():
    F = FF(3)
    M = np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    R1, p1 = rref(F, M)
    R2, p2 = rref(F, M)
    assert np.array_equal(R1, R2) and p1 == p2


def test_extension_field_linalg():
    F = FF(2, 2)
    A = np.array([[2, 1], [3, 2]])  # entries w, 1 / w+1, w
    r = rank(F, A)
    k = kernel_basis(F, A)
    assert r + len(k) == 2
    for v in k:
        assert not F.vmatmul(A, v[:, None]).any()
