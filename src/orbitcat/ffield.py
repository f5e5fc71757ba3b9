"""Exact arithmetic in small finite fields F_{p^n}.

Elements are stored as integer codes in ``range(p**n)``: an element with
residue coefficients (c_0, ..., c_{n-1}) relative to the field modulus,
meaning c_0 + c_1*x + ... + c_{n-1}*x^(n-1), has code
c_0 + c_1*p + ... + c_{n-1}*p**(n-1).  For prime fields (n == 1) the code
is the residue itself and all array helpers reduce to plain mod-p numpy.

The degree-n modulus is chosen deterministically: candidates x^n + c are
enumerated by increasing code of the tail coefficient vector c and the
first irreducible wins.  This keeps structure constants of everything
built on top reproducible across runs and machines.

Matrices and vectors are plain ``numpy.int64`` arrays of codes; the field
object supplies vectorized operations on them.  Small fields (q <= 4096)
get full lookup tables, larger ones go through a digit-vector path.

``FiniteField.combine(coeffs, stack)`` is the one linear-combination
primitive: every sum of field multiples of vectors or matrices in the
layers above goes through it, so how a field does linear algebra
(float64 or int64 products for prime fields, digit convolutions for
extensions) is decided here and nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

_TABLE_LIMIT = 4096
# prime-field matrix products with more multiplications than this use float64
_FLOAT_GATE = 2 ** 15
_FIELD_CACHE: dict = {}


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# bootstrap polynomial helpers over F_p, little-endian int lists.
# Only used to pick the field modulus; the real Poly type lives in poly.py.


def _pp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_trim(out)


def _pp_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _pp_trim(a)
    return a


def _pp_powmod(a, e, m, p):
    result = [1]
    base = _pp_mod(a, m, p)
    while e:
        if e & 1:
            result = _pp_mod(_pp_mul(result, base, p), m, p)
        base = _pp_mod(_pp_mul(base, base, p), m, p)
        e >>= 1
    return result


def _pp_gcd(a, b, p):
    a, b = _pp_trim(list(a)), _pp_trim(list(b))
    while b:
        a, b = b, _pp_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _pp_is_irreducible(f, p):
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if f[0] == 0:
        return False
    x = [0, 1]
    # no repeated or small-degree factors
    xp = _pp_powmod(x, p, f, p)
    g = _pp_gcd([(a - b) % p for a, b in _pad_sub(xp, x, p)], f, p)
    if len(g) - 1 != 0:
        return False
    # x^(p^n) == x mod f, and proper subfield exponents give trivial gcd
    acc = xp
    for _ in range(n - 1):
        acc = _pp_powmod(acc, p, f, p)
    if _pp_trim([(a - b) % p for a, b in _pad_sub(acc, x, p)]):
        return False
    for ell in _prime_divisors(n):
        k = n // ell
        acc = x
        for _ in range(k):
            acc = _pp_powmod(acc, p, f, p)
        g = _pp_gcd([(a - b) % p for a, b in _pad_sub(acc, x, p)], f, p)
        if len(g) - 1 != 0:
            return False
    return True


def _pad_sub(a, b, p):
    ln = max(len(a), len(b))
    a = list(a) + [0] * (ln - len(a))
    b = list(b) + [0] * (ln - len(b))
    return zip(a, b)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _find_modulus(p: int, n: int):
    """First monic irreducible of degree n in tail-code order."""
    if n == 1:
        return (0, 1)
    for code in range(p ** n):
        tail = []
        c = code
        for _ in range(n):
            tail.append(c % p)
            c //= p
        f = tail + [1]
        if _pp_is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FiniteField:
    """The field F_{p^n} with vectorized arithmetic on integer-code arrays."""

    def __init__(self, p: int, n: int = 1):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = _find_modulus(p, n)
        self._powers = np.array([p ** i for i in range(n)], dtype=np.int64)
        self._inv_p = np.array(
            [0] + [pow(i, p - 2, p) for i in range(1, p)], dtype=np.int64
        )
        # x^k mod modulus for k < 2n-1, as digit rows (reduction matrix)
        red = np.zeros((2 * n - 1, n), dtype=np.int64)
        for k in range(2 * n - 1):
            r = _pp_mod([0] * k + [1], list(self.modulus), p)
            for i, c in enumerate(r):
                red[k, i] = c
        self._red = red
        self._build_tables()

    def _build_tables(self):
        q, p, n = self.q, self.p, self.n
        if n == 1 or q > _TABLE_LIMIT:
            self._mul_table = None
            return
        codes = np.arange(q, dtype=np.int64)
        dig = (codes[:, None] // self._powers[None, :]) % p  # (q, n)
        conv = np.zeros((q, q, 2 * n - 1), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                conv[:, :, i + j] += dig[:, None, i] * dig[None, :, j]
        reduced = (conv.reshape(q * q, 2 * n - 1) @ self._red) % p
        self._mul_table = (reduced @ self._powers).reshape(q, q)
        self._add_table = self._encode_digits(
            (dig[:, None, :] + dig[None, :, :]) % p
        )
        self._neg_table = self._encode_digits((-dig) % p)
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = self._pow_int(a, q - 2)
        self._inv_table = inv
        self._frob_table = np.array(
            [self._pow_int(a, p) for a in range(q)], dtype=np.int64
        )

    # -- scalar (int code) operations ------------------------------------

    def digits(self, a: int):
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, digs) -> int:
        return int(sum(int(d) % self.p * self.p ** i for i, d in enumerate(digs)))

    def add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        return self.from_digits(
            (x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))
        )

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        return self.from_digits((-x) % self.p for x in self.digits(a))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return int(self._mul_table[a, b])
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * self.n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % self.p
        red = [0] * self.n
        for k, c in enumerate(conv):
            if c:
                for i in range(self.n):
                    red[i] = (red[i] + c * self._red[k, i]) % self.p
        return self.from_digits(red)

    def _pow_int(self, a: int, e: int) -> int:
        result = 1 if e >= 0 else None
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_int(self.inv(a), -e)
        return self._pow_int(a, e)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        if self.n == 1:
            return pow(a, self.p - 2, self.p)
        if self._mul_table is not None:
            return int(self._inv_table[a])
        return self._pow_int(a, self.q - 2)

    def frobenius(self, a: int, k: int = 1) -> int:
        """k-fold p-power Frobenius of a."""
        k %= self.n
        out = a
        for _ in range(k):
            out = self._pow_int(out, self.p)
        return out

    def elements(self):
        return range(self.q)

    # -- vectorized operations on int64 code arrays ----------------------

    def arr(self, data) -> np.ndarray:
        a = np.asarray(data, dtype=np.int64)
        return a % self.p if self.n == 1 else a

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, m: int) -> np.ndarray:
        return np.eye(m, dtype=np.int64)

    def vadd(self, A, B) -> np.ndarray:
        if self.n == 1:
            return (A + B) % self.p
        if self._mul_table is not None:
            A, B = np.broadcast_arrays(A, B)
            return self._add_table[A, B]
        return self._encode_digits((self._dig(A) + self._dig(B)) % self.p)

    def vsub(self, A, B) -> np.ndarray:
        return self.vadd(A, self.vneg(B))

    def vneg(self, A) -> np.ndarray:
        if self.n == 1:
            return (-np.asarray(A)) % self.p
        if self._mul_table is not None:
            return self._neg_table[np.asarray(A)]
        return self._encode_digits((-self._dig(A)) % self.p)

    def vmul(self, A, B) -> np.ndarray:
        """Elementwise product with broadcasting."""
        if self.n == 1:
            return (np.asarray(A) * np.asarray(B)) % self.p
        if self._mul_table is not None:
            A, B = np.broadcast_arrays(A, B)
            return self._mul_table[A, B]
        A, B = np.broadcast_arrays(np.asarray(A), np.asarray(B))
        da, db = self._dig(A), self._dig(B)
        conv = np.zeros(A.shape + (2 * self.n - 1,), dtype=np.int64)
        for i in range(self.n):
            for j in range(self.n):
                conv[..., i + j] += da[..., i] * db[..., j]
        return self._encode_digits((conv @ self._red) % self.p)

    def vsum(self, A, axis) -> np.ndarray:
        if self.n == 1:
            return np.asarray(A).sum(axis=axis) % self.p
        dig = self._dig(np.asarray(A)).sum(axis=axis) % self.p
        return self._encode_digits(dig)

    def vmatmul(self, A, B) -> np.ndarray:
        """Matrix product over the field; supports leading batch dims."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.n == 1:
            return self._matmul_mod_p(A, B)
        da, db = self._dig(A), self._dig(B)  # (..., r, s, n), (..., s, t, n)
        parts = None
        for i in range(self.n):
            for j in range(self.n):
                prod = self._matmul_mod_p(da[..., i], db[..., j])
                if parts is None:
                    shape = prod.shape + (2 * self.n - 1,)
                    parts = np.zeros(shape, dtype=np.int64)
                parts[..., i + j] += prod
        return self._encode_digits((parts @ self._red) % self.p)

    def _matmul_mod_p(self, A, B) -> np.ndarray:
        """A @ B mod p for int64 arrays with entries in range(p)."""
        rows, inner, cols = A.shape[-2], A.shape[-1], B.shape[-1]
        # multiplications in the product, with either operand batched
        mults = max(A.size * cols, B.size * rows)
        # float64 is exact while (p-1)^2 * inner < 2^53; it pays for its
        # casts only on large matrix-matrix products
        if (min(rows, cols) > 1 and mults > _FLOAT_GATE
                and (self.p - 1) ** 2 * inner < 2 ** 52):
            C = np.matmul(A.astype(np.float64), B.astype(np.float64))
            return np.rint(C).astype(np.int64) % self.p
        return np.matmul(A, B) % self.p

    def combine(self, coeffs, stack) -> np.ndarray:
        """Linear combinations sum_a coeffs[..., a] * stack[a].

        The one linear-combination primitive: a single vmatmul of the
        coefficient rows against the stack flattened to (d, w).  The
        result has shape coeffs.shape[:-1] + stack.shape[1:]."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        stack = np.asarray(stack, dtype=np.int64)
        d = stack.shape[0]
        rows = coeffs.reshape(math.prod(coeffs.shape[:-1]), d)
        flat = self.vmatmul(rows, stack.reshape(d, math.prod(stack.shape[1:])))
        return flat.reshape(coeffs.shape[:-1] + stack.shape[1:])

    def vinv(self, A) -> np.ndarray:
        A = np.asarray(A)
        if np.any(A == 0):
            raise ZeroDivisionError("inverse of zero in finite field")
        if self.n == 1:
            return self._inv_p[A]
        if self._mul_table is not None:
            return self._inv_table[A]
        return np.vectorize(self.inv, otypes=[np.int64])(A)

    def _dig(self, A):
        A = np.asarray(A, dtype=np.int64)
        return (A[..., None] // self._powers) % self.p

    def _encode_digits(self, dig):
        return (np.asarray(dig, dtype=np.int64) @ self._powers).astype(np.int64)

    # ---------------------------------------------------------------------

    def scalar(self, code: int) -> "Scalar":
        return Scalar(self, int(code) % self.q)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        if self.n == 1:
            return f"FF({self.p})"
        return f"FF({self.p}^{self.n})"


class Scalar:
    """A single field element: characteristic, degree and residue coefficients."""

    __slots__ = ("field", "code")

    def __init__(self, field: FiniteField, code: int):
        self.field = field
        self.code = int(code) % field.q

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def coeffs(self):
        return self.field.digits(self.code)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other.code
        if isinstance(other, int):
            return other % self.field.q if self.field.n > 1 else other % self.field.p
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.code, c))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.code, self.field.inv(c)))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.code))

    def __pow__(self, e: int):
        return Scalar(self.field, self.field.pow(self.code, e))

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == other % self.field.q if self.field.n == 1 else NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.field.n == 1:
            return f"{self.code}:F{self.field.p}"
        return f"{self.coeffs}:F{self.field.p}^{self.field.n}"


def FF(p: int, n: int = 1) -> FiniteField:
    """Cached constructor for F_{p^n}."""
    key = (p, n)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, n)
    return _FIELD_CACHE[key]
