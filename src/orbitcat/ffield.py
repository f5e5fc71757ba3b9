"""Exact arithmetic in small finite fields F_{p^n}.

Elements are stored as integer codes in ``range(p**n)``: an element with
residue coefficients (c_0, ..., c_{n-1}) relative to the field modulus,
meaning c_0 + c_1*x + ... + c_{n-1}*x^(n-1), has code
c_0 + c_1*p + ... + c_{n-1}*p**(n-1).  For prime fields (n == 1) the code
is the residue itself and addition, negation and multiplication reduce to
plain mod-p numpy.

The degree-n modulus is chosen deterministically: candidates x^n + c are
enumerated by increasing code of the tail coefficient vector c and the
first irreducible wins.  This keeps structure constants of everything
built on top reproducible across runs and machines.

Matrices and vectors are plain ``numpy.int64`` arrays of codes; the field
object supplies vectorized operations on them.  Every field carries three
arrays of size O(q) built from the powers of a primitive element g
(Lidl-Niederreiter, *Finite Fields*, sec. 2.4): discrete logarithms
``log``, a zero-padded ``exp`` and Zech logarithms ``zech[k] = log(1 +
g^k)``.  Extension-field products, sums and negatives are gathers through
them, and inverses, powers and Frobenius maps are one lookup in any field.
Orders above 2^20 are refused.

``FiniteField.combine(coeffs, stack)`` is the one linear-combination
primitive: every sum of field multiples of vectors or matrices in the
layers above goes through it, so how a field does linear algebra is
decided here and nowhere else.  Prime fields take float64 or int64
products mod p.  An extension-field product is one prime-field product:
the smaller operand becomes its block matrix of the n x n matrices M_a of
multiplication by a on residue digits, the other its digit planes.
"""

from __future__ import annotations

import math

import numpy as np

# the log/exp/Zech arrays of a larger field would pass ~50 MB
_MAX_ORDER = 2 ** 20
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
# bootstrap polynomial helpers over F_p, little-endian int lists, for the
# modulus, the primitive element and the log tables; the real Poly type
# lives in poly.py.  They stay for speed: the ten fields of the orbit
# benchmark set-up build in 2.0 ms with them, 5.7 ms through poly.Poly (the
# same tables, byte for byte) and 3.6-4.7 ms with a companion-matrix test
# of C^(p^n) = C (medians of 200 builds on one Xeon core), against a
# set-up of ~8.5 ms.


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
    """The field F_{p^n} with vectorized arithmetic on integer-code arrays.

    ``log[a]`` is the k < q - 1 with g^k = a for a != 0, and ``log[0]`` is
    the sentinel Z = 2q - 3, for which ``exp[Z + j]`` is 0 for all
    0 <= j <= Z: so ``exp[log[a] + log[b]]`` is a * b with no mask for
    zero.  ``zech[k] = log(1 + g^k)`` for 0 <= k < q - 1, and the rest of
    the array is laid out for numpy's negative indices so that
    ``exp[log[a] + zech[log[b] - log[a]]]`` is a + b whether or not a or b
    is zero: ``zech[d]`` is 0 for d >= q - 1 (b = 0), ``d`` itself for
    d <= -(q - 1) (a = 0) and ``zech[d + q - 1]`` for -(q - 1) < d < 0.
    """

    def __init__(self, p: int, n: int = 1):
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        # n > 20 already exceeds the bound for every p >= 2
        if n > 20 or p ** n > _MAX_ORDER:
            raise ValueError(f"field order {p}^{n} exceeds {_MAX_ORDER}")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = _find_modulus(p, n)
        self._powers = np.array([p ** i for i in range(n)], dtype=np.int64)
        self._build_logs()
        # digit u of every code in the contiguous plane _digits[u], in the
        # smallest unsigned dtype that holds p - 1
        self._digits = np.empty((n, self.q), dtype=np.min_scalar_type(p - 1))
        codes = np.arange(self.q, dtype=np.int64)
        for i in range(n):
            self._digits[i] = codes % p
            codes //= p
        # log x^v mod (q - 1) for v < n (x has code p): a * x^v is
        # exp[log a + _x_logs[v]], zero included
        x_log = int(self.log[p]) if n > 1 else 0
        self._x_logs = np.arange(n, dtype=np.int64) * x_log % (self.q - 1)

    def _primitive_element(self) -> int:
        """First code whose order is q - 1: g^((q-1)/r) != 1 for every
        prime r dividing q - 1."""
        order = self.q - 1
        modulus = list(self.modulus)
        for g in range(1, self.q):
            if all(_pp_powmod(list(self.digits(g)), order // r, modulus, self.p) != [1]
                   for r in _prime_divisors(order)):
                return g
        raise RuntimeError("no primitive element found")  # unreachable

    def _build_logs(self):
        """The log, exp and zech arrays, from the powers of a primitive
        element g walked in digit form: the rows g^0..g^(k-1) times the
        matrix of multiplication by g^k give g^k..g^(2k-1)."""
        p, n, order = self.p, self.n, self.q - 1
        # x^k mod modulus for k < 2n-1, as digit rows (reduction matrix)
        red = np.zeros((2 * n - 1, n), dtype=np.int64)
        for k in range(2 * n - 1):
            for i, c in enumerate(_pp_mod([0] * k + [1], list(self.modulus), p)):
                red[k, i] = c
        # row i holds the digits of x^i * g, so digits(a) @ step = digits(a*g)
        conv = np.zeros((n, 2 * n - 1), dtype=np.int64)
        gd = self.digits(self._primitive_element())
        for i in range(n):
            conv[i, i:i + n] = gd
        step = (conv @ red) % p
        # double the block of powers up to 4096 rows, then walk block by
        # block, keeping only each power's code and constant digit
        block = np.eye(1, n, dtype=np.int64)
        while len(block) < min(order, 4096):
            block = np.concatenate([block, self._matmul_mod_p(block, step)])
            step = self._matmul_mod_p(step, step)
        walk = []
        for _ in range(-(-order // len(block))):
            walk.append(np.stack([block @ self._powers, block[:, 0]], axis=1))
            block = self._matmul_mod_p(block, step)
        codes, const = np.concatenate(walk)[:order].T
        zero = 2 * order - 1
        self.log = np.full(self.q, zero, dtype=np.int32)
        self.log[codes] = np.arange(order, dtype=np.int32)
        self.exp = np.zeros(2 * zero + 1, dtype=np.int64)
        self.exp[:order] = codes
        self.exp[order:zero] = codes[:order - 1]
        # 1 + g^k differs from g^k only in its constant digit
        one_plus = codes - const + (const + 1) % p
        zech = self.log[one_plus]
        self.zech = np.concatenate([
            zech,
            np.zeros(order, dtype=np.int32),
            np.arange(-zero, -order + 1, dtype=np.int32),
            zech[1:],
        ])
        # log(-1): -1 = g^((q-1)/2) for odd p, and -1 = 1 for p = 2
        self._log_neg1 = order // 2 if p > 2 else 0

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
        return int(self.vadd(a, b))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.n == 1:
            return (-a) % self.p
        return int(self.vneg(a))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        return int(self.vmul(a, b))

    def pow(self, a: int, e: int) -> int:
        """a ** e, by one lookup exp[(e * log a) mod (q - 1)]."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in finite field")
            return 0 if e else 1
        return int(self.exp[int(self.log[a]) * e % (self.q - 1)])

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def frobenius(self, a: int, k: int = 1) -> int:
        """k-fold p-power Frobenius of a."""
        return self.pow(a, self.p ** (k % self.n))

    # -- vectorized operations on int64 code arrays ----------------------

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, m: int) -> np.ndarray:
        return np.eye(m, dtype=np.int64)

    def vadd(self, A, B) -> np.ndarray:
        if self.n == 1:
            return (A + B) % self.p
        la = self.log[A]
        return self.exp[la + self.zech[self.log[B] - la]]

    def vsub(self, A, B) -> np.ndarray:
        if self.n == 1:
            return (np.asarray(A) - B) % self.p
        return self.vadd(A, self.vneg(B))

    def vneg(self, A) -> np.ndarray:
        if self.n == 1:
            return (-np.asarray(A)) % self.p
        return self.exp[self.log[A] + self._log_neg1]

    def vsubmul(self, X, c, Y) -> np.ndarray:
        """X - c * Y elementwise, with broadcasting: the elimination step.

        Prime fields make one pass, (X - c Y) mod p.  Extension fields
        add X to (-c) Y, negating only the coefficient c, which broadcasts
        against Y and is never larger than the product."""
        if self.n == 1:
            return (np.asarray(X) - np.asarray(c) * np.asarray(Y)) % self.p
        return self.vadd(X, self.vmul(self.vneg(c), Y))

    def vmul(self, A, B) -> np.ndarray:
        """Elementwise product with broadcasting."""
        if self.n == 1:
            return (np.asarray(A) * np.asarray(B)) % self.p
        return self.exp[self.log[A] + self.log[B]]

    def vfrobenius(self, A, k: int = 1) -> np.ndarray:
        """k-fold p-power Frobenius of every code in A, by one gather: a
        nonzero a goes to exp[log a * p^k mod (q - 1)] and 0 stays 0.  The
        map has order n, so a negative k gives the inverse power."""
        A = np.asarray(A, dtype=np.int64)
        k %= self.n
        if k == 0:
            return A
        out = self.exp[self.log[A].astype(np.int64) * self.p ** k % (self.q - 1)]
        return np.where(A == 0, 0, out)

    def vsum(self, A, axis: int) -> np.ndarray:
        A = np.asarray(A)
        if self.n == 1:
            return A.sum(axis=axis) % self.p
        dig = self._planes(A, A.ndim).sum(axis=axis % A.ndim) % self.p
        return self._encode_digits(dig)

    def vmatmul(self, A, B) -> np.ndarray:
        """Matrix product over the field, with np.matmul's shape rules:
        leading batch dimensions broadcast, and a 1-D operand is promoted
        to a matrix (a row on the left, a column on the right) whose added
        axis is dropped from the result.

        An extension-field product is one prime-field product.  Let
        M_a be the n x n matrix of multiplication by a on residue digits:
        column v of M_a is digits(a * x^v), so digits(a * b) = M_a digits(b)
        (Lidl-Niederreiter, *Finite Fields*, sec. 2.5, regular
        representation), and digits(sum_k a_k b_k) = sum_k M_{a_k}
        digits(b_k) mod p.  For A (r x s) and B (s x t), the smaller
        operand (A when A.size <= B.size) is expanded into blocks, as a
        block holds n^2 digits per entry and a digit plane n:

        - A side: the (r n) x (s n) matrix with block (i, k) = M_{A[i,k]}
          times the (s n) x t matrix with entry (k n + v, j) =
          digit v of B[k,j] gives digit u of C[i,j] in row i n + u;
        - B side: the r x (s n) matrix with entry (i, k n + v) = digit v of
          A[i,k] times the (s n) x (t n) matrix with entry
          (k n + v, j n + u) = M_{B[k,j]}[u, v] gives digit u of C[i,j] in
          column j n + u, as multiplication commutes.

        Either way one ``_matmul_mod_p`` with inner size s n and one
        encode with the powers of p give C.  Every operand entry is a digit
        in range(p), so an output entry before the reduction is at most
        (p - 1)^2 s n; ``_matmul_mod_p`` tests exactly that bound, with
        inner size s n, before it takes float64, so the product stays exact.
        The blocks come from n gathers exp[log a + log x^v] and the digit
        table, never from a (q, n, n) table of the M_a."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.ndim == 1 or B.ndim == 1:
            drop = (-2,) * (A.ndim == 1) + (-1,) * (B.ndim == 1)
            A = A[None] if A.ndim == 1 else A
            B = B[:, None] if B.ndim == 1 else B
            return self.vmatmul(A, B).squeeze(axis=drop)
        if self.n == 1:
            return self._matmul_mod_p(A, B)
        n, (r, s), t = self.n, A.shape[-2:], B.shape[-1]
        if A.size <= B.size:
            prods = self.exp[self.log[A][..., None] + self._x_logs]  # (..., r, s, v)
            blocks = self._planes(prods, A.ndim - 1).reshape(A.shape[:-2] + (r * n, s * n))
            dig = self._planes(B, B.ndim - 1).reshape(B.shape[:-2] + (s * n, t))
            C = self._matmul_mod_p(blocks, dig)
            C = self._powers @ C.reshape(C.shape[:-2] + (r, n, t))
        else:
            prods = self.exp[self.log[B][..., None, :] + self._x_logs[:, None]]  # (..., s, v, t)
            blocks = self._planes(prods, B.ndim + 1).reshape(B.shape[:-2] + (s * n, t * n))
            dig = self._planes(A, A.ndim).reshape(A.shape[:-2] + (r, s * n))
            C = self._matmul_mod_p(dig, blocks)
            C = self._encode_digits(C.reshape(C.shape[:-1] + (t, n)))
        return C

    def _matmul_mod_p(self, A, B) -> np.ndarray:
        """A @ B mod p for int64 arrays with entries in range(p).

        Large matrix-matrix products run in float64 and reduce there, as
        C - p floor(C / p) with one cast at the end.  This is exact while
        (p - 1)^2 inner < 2^52.  Every partial sum is then an integer in
        [0, 2^52), so C is exact.  For C = k p + r with 0 <= r < p, the
        quotient C / p < 2^52 / p is correctly rounded, with an error of at
        most (C / p) 2^-53 < 1 / (2 p).  If r = 0 it is the integer k itself.
        Otherwise the exact quotient k + r / p lies at least 1 / p from
        every integer, so the rounded one stays inside (k, k + 1).  Either
        way the floor is k, and p k and C - p k = r are exact."""
        rows, inner, cols = A.shape[-2], A.shape[-1], B.shape[-1]
        # multiplications in the product, with either operand batched
        mults = max(A.size * cols, B.size * rows)
        # float64 pays for its casts only on large matrix-matrix products
        if (min(rows, cols) > 1 and mults > _FLOAT_GATE
                and (self.p - 1) ** 2 * inner < 2 ** 52):
            C = np.matmul(A.astype(np.float64), B.astype(np.float64))
            R = np.floor(C / self.p)
            R *= -self.p
            R += C
            return R.astype(np.int64)
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

    def _planes(self, X, axis: int) -> np.ndarray:
        """The digits of the codes X as int64, digit u at index u of a new
        axis inserted at position ``axis``: one np.take per digit plane."""
        out = np.empty(X.shape[:axis] + (self.n,) + X.shape[axis:], dtype=np.int64)
        for u, plane in enumerate(self._digits):
            out[(slice(None),) * axis + (u,)] = np.take(plane, X)
        return out

    def _encode_digits(self, dig):
        return np.asarray(dig, dtype=np.int64) @ self._powers

    # ---------------------------------------------------------------------

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


def FF(p: int, n: int = 1) -> FiniteField:
    """Cached constructor for F_{p^n}."""
    key = (p, n)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, n)
    return _FIELD_CACHE[key]
