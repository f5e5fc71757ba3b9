"""Dense univariate polynomials over a finite field.

Coefficients are stored little-endian as a tuple of field codes with no
trailing zeros; the zero polynomial is the empty tuple.  Factorization is
Berlekamp's null-space method: squarefree decomposition first, then the
fixed space of the q-power Frobenius on F_q[x]/(f) separates the
irreducible factors, split off with gcds against Tr(w) - c for traces
Tr(w) over F_p of elements w of that space and c in F_p.
Everything is deterministic; factor lists are sorted by degree and then
lexicographically on the coefficient tuple.
"""

from __future__ import annotations

from .ffield import FiniteField, _prime_divisors


class Poly:
    """Polynomial over a finite field, normalized (no trailing zeros)."""

    __slots__ = ("field", "codes")

    def __init__(self, field: FiniteField, codes):
        cs = [int(c) % field.q for c in codes]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.codes = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.codes) - 1

    def is_zero(self) -> bool:
        return not self.codes

    def lead(self) -> int:
        if not self.codes:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.codes[-1]

    def monic(self) -> "Poly":
        if not self.codes:
            return self
        inv = self.field.inv(self.codes[-1])
        return Poly(self.field, [self.field.mul(c, inv) for c in self.codes])

    def __add__(self, other):
        F = self.field
        a, b = self.codes, other.codes
        ln = max(len(a), len(b))
        a = a + (0,) * (ln - len(a))
        b = b + (0,) * (ln - len(b))
        return Poly(F, [F.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.codes])

    def __mul__(self, other):
        F = self.field
        if isinstance(other, int):
            return Poly(F, [F.mul(c, other % F.q) for c in self.codes])
        a, b = self.codes, other.codes
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly(F, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.codes)
        db, lead_inv = other.degree, F.inv(other.lead())
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = F.mul(rem[-1], lead_inv)
            shift = len(rem) - 1 - db
            quot[shift] = c
            for i, bi in enumerate(other.codes):
                rem[shift + i] = F.sub(rem[shift + i], F.mul(c, bi))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.codes))

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(c, i % F.p) for i, c in enumerate(self.codes)][1:])

    def sort_key(self):
        return (self.degree, self.codes)

    def __repr__(self):
        if not self.codes:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.codes):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + f" over {self.field!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = F.inv(r0.lead())
    scale = Poly.const(F, inv)
    return r0 * inv, s0 * scale, t0 * scale


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_q via the Frobenius power criterion."""
    F = f.field
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    x = Poly.x(F)
    acc = x
    for _ in range(n):
        acc = poly_pow_mod(acc, F.q, f)
    if not ((acc - x) % f).is_zero():
        return False
    for ell in _prime_divisors(n):
        acc = x
        for _ in range(n // ell):
            acc = poly_pow_mod(acc, F.q, f)
        if poly_gcd(acc - x, f).degree != 0:
            return False
    return True


def _pth_root(f: Poly) -> Poly:
    """Inverse of the p-power map on polynomials with only p-th power terms."""
    F = f.field
    p = F.p
    out = []
    for i in range(0, len(f.codes), p):
        c = f.codes[i]
        # inverse Frobenius on the coefficient: c ** p^(n-1)
        out.append(F.frobenius(c, F.n - 1))
    return Poly(F, out)


def squarefree_decomposition(f: Poly):
    """Yield (squarefree factor, multiplicity) pairs, standard char-p version."""
    F = f.field
    p = F.p
    out = []

    def rec(g: Poly, mult: int):
        if g.degree < 1:
            return
        d = g.derivative()
        if d.is_zero():
            rec(_pth_root(g), mult * p)
            return
        c = poly_gcd(g, d)
        w = g // c
        i = 1
        while w.degree > 0:
            y = poly_gcd(w, c)
            z = w // y
            if z.degree > 0:
                out.append((z.monic(), i * mult))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            rec(_pth_root(c), mult * p)

    rec(f.monic(), 1)
    return out


def _berlekamp_matrix(f: Poly):
    """Columns are x^(q*j) mod f in the power basis of F_q[x]/(f)."""
    import numpy as np

    F = f.field
    m = f.degree
    Q = np.zeros((m, m), dtype=np.int64)
    xq = poly_pow_mod(Poly.x(F), F.q, f)
    acc = Poly.one(F)
    for j in range(m):
        for i, c in enumerate(acc.codes):
            Q[i, j] = c
        acc = (acc * xq) % f
    return Q


def _trace(w: Poly, f: Poly) -> Poly:
    """Tr_{F_q/F_p}(w) = sum_{j<n} w^(p^j) mod f, for q = p^n."""
    F = w.field
    acc = cur = w % f
    for _ in range(F.n - 1):
        cur = poly_pow_mod(cur, F.p, f)
        acc = acc + cur
    return acc


def berlekamp_factor(f: Poly):
    """Irreducible factors of a squarefree monic polynomial.

    The kernel of Q - I is the Berlekamp subalgebra B of F_q[x]/(f), a copy
    of F_q^r with one coordinate per irreducible factor.  With theta the
    generator of F_q over F_p (code p) and v running over a basis of B, the
    traces Tr(theta^i v), i < n, span the F_p-points of B.  So for every
    two factors some trace t takes different values in F_p on them, and
    the gcds of f with t - c, c in F_p, split them apart: O(p) gcds per
    factor, not O(q).  For n = 1 the trace is v itself."""
    from .linalg import kernel_basis

    F = f.field
    if f.degree <= 1:
        return [f]
    import numpy as np

    Q = _berlekamp_matrix(f)
    K = kernel_basis(F, F.vsub(Q, F.eye(f.degree)))
    r = len(K)
    if r == 1:
        return [f]
    traces = (_trace(Poly(F, list(np.asarray(v).ravel())) * F.p ** i, f)
              for v in K for i in range(F.n))
    factors = [f]
    for t in traces:
        if len(factors) == r:
            break
        if t.degree < 1:
            continue
        next_factors = []
        for g in factors:
            if g.degree <= 1:
                next_factors.append(g)
                continue
            rest = g
            for c in range(F.p):
                if rest.degree <= 0:
                    break
                d = poly_gcd(rest, t - Poly.const(F, c))
                if 0 < d.degree < rest.degree:
                    next_factors.append(d.monic())
                    rest = rest // d
            if rest.degree > 0:
                next_factors.append(rest.monic())
        factors = next_factors
    if len(factors) != r:
        from .algebra import CertificationError  # algebra imports this module

        raise CertificationError("Berlekamp split incomplete")
    return factors


def poly_factor(f: Poly):
    """Full factorization into monic irreducibles with multiplicities.

    The product of the factors (with multiplicities) times the leading
    coefficient of f recovers f.  Output sorted by (degree, coefficients).
    """
    if f.is_zero():
        raise ValueError("zero input")
    if f.degree == 0:
        return []
    out = []
    for sqf, mult in squarefree_decomposition(f):
        for irr in berlekamp_factor(sqf):
            out.append((irr.monic(), mult))
    out.sort(key=lambda t: t[0].sort_key())
    return out
