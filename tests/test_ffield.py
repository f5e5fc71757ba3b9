import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitcat.ffield import FF, Scalar


def test_prime_field_basics():
    F = FF(7)
    assert F.q == 7
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5


def test_extension_modulus_deterministic():
    F4 = FF(2, 2)
    # x^2 + x + 1 is the first irreducible quadratic over F_2
    assert F4.modulus == (1, 1, 1)
    F9 = FF(3, 2)
    # x^2 + 1 over F_3
    assert F9.modulus == (1, 0, 1)


def test_extension_arithmetic_f4():
    F = FF(2, 2)
    w = 2  # the class of x
    # x^2 = x + 1 mod x^2+x+1
    assert F.mul(w, w) == 3
    assert F.mul(w, 3) == 1  # x * (x+1) = x^2 + x = 1
    assert F.inv(w) == 3
    for a in range(1, 4):
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, n):
    F = FF(p, n)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # associativity and distributivity on all triples
    for a in els:
        for b in els:
            ab_sum = F.add(a, b)
            ab_mul = F.mul(a, b)
            for c in els:
                assert F.add(ab_sum, c) == F.add(a, F.add(b, c))
                assert F.mul(ab_mul, c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_vectorized_matches_scalar():
    for (p, n) in [(5, 1), (3, 2), (2, 3)]:
        F = FF(p, n)
        rng = np.random.default_rng(0)
        A = rng.integers(0, F.q, size=(4, 5))
        B = rng.integers(0, F.q, size=(4, 5))
        VA = F.vadd(A, B)
        VM = F.vmul(A, B)
        for i in range(4):
            for j in range(5):
                assert VA[i, j] == F.add(int(A[i, j]), int(B[i, j]))
                assert VM[i, j] == F.mul(int(A[i, j]), int(B[i, j]))


def test_vmatmul_matches_naive():
    for (p, n) in [(7, 1), (3, 2)]:
        F = FF(p, n)
        rng = np.random.default_rng(1)
        A = rng.integers(0, F.q, size=(3, 4))
        B = rng.integers(0, F.q, size=(4, 2))
        C = F.vmatmul(A, B)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = F.add(acc, F.mul(int(A[i, k]), int(B[k, j])))
                assert C[i, j] == acc


def test_frobenius_is_field_automorphism():
    F = FF(3, 4)
    for a in [0, 1, 5, 17, 80, 33]:
        for b in [2, 9, 41]:
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    # order of Frobenius is the extension degree
    a = 2
    out = a
    for _ in range(4):
        out = F.frobenius(out)
    assert out == a


def test_scalar_wrapper():
    F = FF(5)
    a = F.scalar(3)
    b = F.scalar(4)
    assert (a + b).code == 2
    assert (a * b).code == 2
    assert (a / b).code == F.mul(3, F.inv(4))
    assert a.p == 5 and a.n == 1 and a.coeffs == (3,)
    w = FF(2, 2).scalar(2)
    assert w.coeffs == (0, 1)


_COMBINE_FIELDS = [(7, 1), (2, 2), (5, 2), (2, 13)]  # FF(2, 13) has no tables


@given(
    st.sampled_from(_COMBINE_FIELDS),
    st.integers(min_value=0, max_value=4),  # d, the stack length
    st.integers(min_value=1, max_value=3),  # coefficient rows
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),  # stack tail
    st.integers(min_value=0, max_value=10 ** 6),
)
@example((2, 13), 0, 2, [3], 0)  # d = 0
@example((5, 2), 3, 2, [0], 1)  # zero-width stack
@example((7, 1), 2, 1, [2, 0], 2)
@settings(max_examples=80, deadline=None)
def test_combine_matches_naive_sum(field, d, rows, tail, seed):
    F = FF(*field)
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, F.q, size=(rows, d))
    stack = rng.integers(0, F.q, size=(d,) + tuple(tail))
    got = F.combine(coeffs, stack)
    assert got.shape == (rows,) + tuple(tail)
    for r in range(rows):
        acc = F.zeros(tuple(tail))
        for a in range(d):
            acc = F.vadd(acc, F.vmul(int(coeffs[r, a]), stack[a]))
        assert np.array_equal(got[r], acc)
    # a single coefficient vector combines to one element of the stack's shape
    assert np.array_equal(F.combine(coeffs[0], stack), got[0])
