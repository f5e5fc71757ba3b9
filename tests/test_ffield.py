import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitcat.ffield import FF, FiniteField


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


def test_field_tables_pinned():
    """Every structure constant above this layer is read through a field's
    modulus and its log, exp and Zech tables, so one digest over the 45
    fields p^n <= 2^16 with p <= 13 pins them, each built afresh."""
    digest = hashlib.sha256()
    fields = 0
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n <= 2 ** 16:
            F = FiniteField(p, n)
            digest.update(repr((p, n, F.modulus)).encode())
            for table in (F.log, F.exp, F.zech):
                digest.update(table.tobytes())
            fields += 1
            n += 1
    assert fields == 45
    assert digest.hexdigest() == \
        "573f26c99e0f6d8f9501d17195cd6971aff1ea3dba6a156d3f176079189eef71"


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
    els = range(F.q)
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


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_vfrobenius_matches_scalar_frobenius(p, n):
    """Every code of the field, every power k of the Frobenius (negative
    k included, the inverse powers), in one gather."""
    F = FF(p, n)
    codes = np.arange(F.q, dtype=np.int64).reshape(p, -1)
    for k in range(-n, 2 * n):
        expected = [[F.frobenius(int(a), k) for a in row] for row in codes]
        np.testing.assert_array_equal(F.vfrobenius(codes, k), expected)
    np.testing.assert_array_equal(F.vfrobenius(F.vfrobenius(codes, 1), -1), codes)


def test_scalar_wrapper():
    F = FF(5)
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.mul(3, F.inv(4)) == 2  # 3 / 4 = 3 * 4 = 12 = 2
    assert F.digits(3) == (3,)
    assert FF(2, 2).digits(2) == (0, 1)


def test_scalar_int_is_prime_subfield_element():
    """The codes below p are the prime subfield: they add and multiply mod p."""
    F9 = FF(3, 2)
    assert F9.add(1, 2) == 0  # 1 + 2 = 3 = 0 in characteristic 3
    assert F9.mul(2, 2) == 1
    assert F9.sub(3, 1) == 5  # x - 1 = x + 2: digits (2, 1)
    assert F9.digits(5) == (2, 1)


def test_order_bound_and_build_cost():
    with pytest.raises(ValueError, match="exceeds"):
        FiniteField(2, 40)
    with pytest.raises(ValueError, match="exceeds"):
        FiniteField(1048583)  # the first prime above 2^20
    start = time.perf_counter()
    FiniteField(7, 4)
    assert time.perf_counter() - start < 0.1
    tracemalloc.start()
    try:
        FiniteField(7, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


# -- schoolbook reference: residue digits, convolution, long division ------

def _ref_digits(F, a):
    return [a // F.p ** i % F.p for i in range(F.n)]


def _ref_code(F, digs):
    return sum(d % F.p * F.p ** i for i, d in enumerate(digs))


def _ref_add(F, a, b):
    return _ref_code(F, [x + y for x, y in zip(_ref_digits(F, a), _ref_digits(F, b))])


def _ref_neg(F, a):
    return _ref_code(F, [-x for x in _ref_digits(F, a)])


def _ref_mul(F, a, b):
    da, db = _ref_digits(F, a), _ref_digits(F, b)
    conv = [0] * (2 * F.n - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    # reduce by the monic modulus from the top degree down
    for k in range(2 * F.n - 2, F.n - 1, -1):
        c = conv[k] % F.p
        for i, m in enumerate(F.modulus):
            conv[k - F.n + i] -= c * m
    return _ref_code(F, conv[:F.n])


def _ref_pow(F, a, e):
    if e < 0:
        a, e = _ref_pow(F, a, F.q - 2), -e
    out = 1
    while e:
        if e & 1:
            out = _ref_mul(F, out, a)
        a = _ref_mul(F, a, a)
        e >>= 1
    return out


_REF_FIELDS = [(2, 2), (3, 2), (2, 3), (7, 4), (2, 13)]


@given(st.sampled_from(_REF_FIELDS), st.data())
@example((2, 13), None)
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_schoolbook_reference(field, data):
    F = FF(*field)
    if data is None:  # zeros against zeros and against the extremes
        A, B = [0, 0, 1, F.q - 1], [0, F.q - 1, 0, 1]
    else:
        code = st.one_of(st.just(0), st.integers(1, F.q - 1))
        A = data.draw(st.lists(code, min_size=1, max_size=6))
        B = data.draw(st.lists(code, min_size=len(A), max_size=len(A)))
    VA, VB = np.array(A), np.array(B)
    assert F.vadd(VA, VB).tolist() == [_ref_add(F, a, b) for a, b in zip(A, B)]
    assert F.vsub(VA, VB).tolist() == [_ref_add(F, a, _ref_neg(F, b)) for a, b in zip(A, B)]
    assert F.vneg(VA).tolist() == [_ref_neg(F, a) for a in A]
    assert F.vmul(VA, VB).tolist() == [_ref_mul(F, a, b) for a, b in zip(A, B)]
    # broadcasting a scalar code against an array
    assert F.vmul(A[0], VB).tolist() == [_ref_mul(F, A[0], b) for b in B]
    for a, b in zip(A, B):
        assert F.add(a, b) == _ref_add(F, a, b)
        assert F.mul(a, b) == _ref_mul(F, a, b)
        e = b - F.q // 2
        if a == 0 and e < 0:
            with pytest.raises(ZeroDivisionError):
                F.pow(a, e)
        else:
            assert F.pow(a, e) == _ref_pow(F, a, e)
        if a:
            assert F.inv(a) == _ref_pow(F, a, F.q - 2)
        else:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        for k in range(F.n + 1):
            assert F.frobenius(a, k) == _ref_pow(F, a, F.p ** (k % F.n))


_COMBINE_FIELDS = [(7, 1), (2, 2), (5, 2), (2, 13)]


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


def _ref_matmul(F, A, B):
    """A @ B with the schoolbook field operations; batch dimensions and
    1-D operands follow np.matmul, which also gives the result's shape."""
    shape = np.matmul(np.zeros(A.shape), np.zeros(B.shape)).shape
    A2 = A[None] if A.ndim == 1 else A
    B2 = B[:, None] if B.ndim == 1 else B
    batch = np.broadcast_shapes(A2.shape[:-2], B2.shape[:-2])
    A2 = np.broadcast_to(A2, batch + A2.shape[-2:])
    B2 = np.broadcast_to(B2, batch + B2.shape[-2:])
    C = np.zeros(batch + (A2.shape[-2], B2.shape[-1]), dtype=np.int64)
    for idx in np.ndindex(*C.shape):
        *b, i, j = idx
        acc = 0
        for k in range(A2.shape[-1]):
            acc = _ref_add(F, acc, _ref_mul(F, int(A2[(*b, i, k)]), int(B2[(*b, k, j)])))
        C[idx] = acc
    return C.reshape(shape)


_MATMUL_FIELDS = [(7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (7, 4), (2, 13)]
# leading dimensions of A and of B; None makes that operand 1-D
_MATMUL_BATCHES = [((), ()), ((2,), ()), ((), (3,)), ((2, 1), (1, 3)), ((2, 3), (3,)),
                   (None, ()), ((), None), (None, (2,)), ((2,), None), (None, None)]


@given(
    st.sampled_from(_MATMUL_FIELDS),
    st.sampled_from(_MATMUL_BATCHES),
    st.integers(min_value=0, max_value=3),  # r
    st.integers(min_value=0, max_value=3),  # s
    st.integers(min_value=0, max_value=3),  # t
    st.integers(min_value=0, max_value=10 ** 6),
)
@example((2, 2), (None, ()), 1, 3, 3, 0)  # vector @ matrix
@example((2, 2), ((), None), 3, 3, 1, 1)  # matrix @ vector
@example((7, 4), ((2, 1), (1, 3)), 2, 3, 1, 2)  # A.size > B.size: B is expanded
@example((2, 13), ((), ()), 2, 2, 2, 3)  # A.size == B.size: A is expanded
@example((3, 2), ((2,), (2,)), 1, 3, 2, 4)  # A.size < B.size
@example((2, 4), ((), ()), 0, 2, 3, 5)  # zero rows
@example((2, 3), ((2,), ()), 2, 0, 3, 6)  # zero inner size
@example((7, 1), ((), (3,)), 2, 3, 0, 7)  # zero columns
@settings(max_examples=120, deadline=None)
def test_vmatmul_matches_schoolbook_reference(field, batches, r, s, t, seed):
    F = FF(*field)
    rng = np.random.default_rng(seed)
    a_batch, b_batch = batches
    A = rng.integers(0, F.q, size=(s,) if a_batch is None else a_batch + (r, s))
    B = rng.integers(0, F.q, size=(s,) if b_batch is None else b_batch + (s, t))
    got = F.vmatmul(A, B)
    assert got.dtype == np.int64
    assert np.array_equal(got, _ref_matmul(F, A, B))
    # codes of any integer dtype
    assert np.array_equal(F.vmatmul(A.astype(np.int32), B.astype(np.uint16)), got)


@pytest.mark.parametrize("field,a_shape,b_shape,floats", [
    ((3, 2), (3, 4), (4, 2), False),
    ((3, 2), (20, 24), (24, 20), True),  # A expanded: (40 x 48) @ (48 x 20)
    ((3, 2), (40, 24), (24, 20), True),  # B expanded: (40 x 48) @ (48 x 40)
    ((2, 4), (6, 8), (8, 64), True),  # A expanded: (24 x 32) @ (32 x 64)
])
def test_vmatmul_block_product_takes_both_gate_branches(monkeypatch, field, a_shape, b_shape,
                                                        floats):
    """The block product has inner size s n; above the float gate it runs
    in float64 (seen as a call to np.floor), below it in int64, exact both
    ways."""
    F = FF(*field)
    rng = np.random.default_rng(0)
    A = rng.integers(0, F.q, size=a_shape)
    B = rng.integers(0, F.q, size=b_shape)
    inner, rounded = [], []
    real_mm, real_floor = FiniteField._matmul_mod_p, np.floor
    monkeypatch.setattr(FiniteField, "_matmul_mod_p",
                        lambda self, X, Y: inner.append(X.shape[-1]) or real_mm(self, X, Y))
    monkeypatch.setattr(np, "floor", lambda X: rounded.append(X.shape) or real_floor(X))
    got = F.vmatmul(A, B)
    assert inner == [a_shape[-1] * F.n]
    assert bool(rounded) == floats
    assert np.array_equal(got, _ref_matmul(F, A, B))


@pytest.mark.parametrize("p", [2, 3, 7, 65521, 1048573])
def test_float_reduction_matches_int64_path(monkeypatch, p):
    """The float64 branch reduces C - p floor(C / p) to the int64 C mod p,
    on exact multiples of p and on all-(p-1) operands, whose every entry
    is (p-1)^2 inner: the largest the float gate lets through."""
    F = FF(p)
    inner = min(4096, (2 ** 52 - 1) // (p - 1) ** 2)
    rng = np.random.default_rng(p)
    full = np.full((8, inner), p - 1, dtype=np.int64)
    # B's column sums are multiples of p, so full @ B holds only multiples of p
    B = rng.integers(0, p, size=(inner, 8))
    B[-1] = -B[:-1].sum(axis=0) % p
    cases = [(full, full.T.copy()), (full, B), (rng.integers(0, p, size=(8, inner)), B)]
    floats, real_floor = [], np.floor
    monkeypatch.setattr(np, "floor", lambda X: floats.append(X.shape) or real_floor(X))
    for A, B in cases:
        got = F._matmul_mod_p(A, B)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.matmul(A, B) % p)
    assert len(floats) == len(cases)
    # the largest p reaches the gate: one more inner term would pass 2^52
    assert p < 2 ** 16 or (p - 1) ** 2 * (inner + 1) >= 2 ** 52
    assert np.array_equal(F._matmul_mod_p(*cases[0]), np.full((8, 8), (p - 1) ** 2 * inner % p))
    assert not F._matmul_mod_p(*cases[1]).any()
