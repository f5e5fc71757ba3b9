"""Exact dense linear algebra over finite fields.

Matrices are numpy int64 arrays of field codes, paired with a FiniteField.
Row reduction, kernels, solving and rank all come from one reduced
row-echelon routine with a fixed pivoting rule (first nonzero entry in
column order), so every basis this module emits is deterministic.  rref
returns only the echelon rows, shape (rank, cols).  It drops the zero
rows of its input first and touches only the columns from each pivot
rightwards, and neither shortcut changes the result (see rref), so a
tall sparse system such as a stacked hom system costs what its nonzero
rows cost.  Each elimination step is one FiniteField.vsubmul.

Characteristic polynomials use the Samuelson-Berkowitz recurrence, which
is division-free and batches over a stack of matrices.  It can stop at
the leading T coefficients: coefficient t of each step reads only
coefficients <= t of the previous one and the Krylov scalars R A^k C
with k <= t - 2, so a truncated run keeps T coefficients and forms at
most T - 2 scalars per step (see charpoly_batched).  Minimal polynomials
come from the first linear dependence among the powers of an element
under its multiplication action (min_poly_of_action); min_poly is the
case of a matrix acting on the right of m x m matrices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .ffield import FiniteField
from .poly import Poly


# ---------------------------------------------------------------------------
# row reduction and friends


def rref(field: FiniteField, M) -> tuple:
    """Reduced row echelon form of M: (R, pivot column list).

    R holds only the echelon rows, shape (rank, cols), and never shares
    memory with M.  The pivot of column c is its first nonzero entry at
    or below row r, the number of pivots found so far.

    Why the shortcuts are exact: a zero row stays zero under every row
    operation and never holds a pivot, so dropping the zero rows first
    changes neither R nor the pivots.  When column c is reached, rows
    r and below are zero left of c (each earlier column was either
    cleared below its pivot or had no entry there).  So swapping two of
    them, normalising the pivot row or subtracting multiples of it from
    other rows changes only the columns c and right of it, and those
    are the only columns the loop touches.
    """
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("rref needs a 2-d array")
    R = M[M.any(axis=1)]
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # one scan of the column gives the pivot row and the rows to clear
        nz = R[:, c].nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == nz.size:
            continue
        i = int(nz[k])
        if i != r:
            R[[r, i], c:] = R[[i, r], c:]
        lead = int(R[r, c])
        if lead != 1:
            R[r, c:] = field.vmul(R[r, c:], field.inv(lead))
        # row i now holds the pivot (i == r) or a zero in column c (i > r)
        clear = nz[nz != i]
        if clear.size:
            R[clear, c:] = field.vsubmul(R[clear, c:], R[clear, c][:, None], R[r, c:])
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank(field, M) -> int:
    return len(rref(field, M)[1])


def kernel_basis(field, M):
    """Echelonized basis of the right null space, as a list of 1-d arrays.

    The basis comes straight from the reduced echelon form: one vector per
    free column, with a 1 in the free position and the negated pivot-row
    entries above it.
    """
    M = np.asarray(M, dtype=np.int64)
    cols = M.shape[1]
    R, pivots = rref(field, M)
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    basis = np.zeros((cols - len(pivots), cols), dtype=np.int64)
    basis[np.arange(len(basis)), np.flatnonzero(free)] = 1
    basis[:, pivots] = field.vneg(R[:, free].T)
    return list(basis)


def solve(field, A, B) -> Optional[np.ndarray]:
    """Particular solution X of A X = B (free variables zero), or None."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    single = B.ndim == 1
    if single:
        B = B[:, None]
    if A.shape[0] != B.shape[0]:
        raise ValueError("incompatible shapes in solve")
    aug = np.concatenate([A, B], axis=1)
    R, pivots = rref(field, aug)
    ncols = A.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    X = np.zeros((ncols, B.shape[1]), dtype=np.int64)
    X[pivots] = R[:, ncols:]
    return X[:, 0] if single else X


def inverse(field, A) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    m = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("inverse of non-square matrix")
    X = solve(field, A, field.eye(m))
    if X is None or not np.array_equal(field.vmatmul(A, X), field.eye(m)):
        raise ValueError("matrix is singular")
    return X


def is_invertible(field, A) -> bool:
    A = np.asarray(A)
    return A.shape[0] == A.shape[1] and rank(field, A) == A.shape[0]


class SpanSolver:
    """Echelonized span of row vectors with coordinate recovery.

    residual(V) is the one reduce-modulo-the-span primitive; the other
    methods call it.  Because the stored basis is in reduced echelon form,
    the coordinates of a vector are its pivot-column entries, and it lies
    in the span iff its residual vanishes.
    """

    def __init__(self, field, rows):
        self.field = field
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            rows = rows.reshape(len(rows), -1)
        self.basis, self.pivots = rref(field, rows)

    @property
    def dim(self):
        return len(self.pivots)

    def residual(self, V):
        """V - V[:, pivots] @ basis for rows V of shape (N, width): zero on
        the pivot columns, and zero exactly on the rows inside the span."""
        V = np.asarray(V, dtype=np.int64)
        F = self.field
        return F.vsub(V, F.vmatmul(V[:, self.pivots], self.basis))

    def reduce(self, v):
        v = np.asarray(v, dtype=np.int64).reshape(1, -1)
        return self.residual(v)[0], v[0, self.pivots]

    def contains(self, v) -> bool:
        res, _ = self.reduce(v)
        return not res.any()

    def coords(self, v):
        res, coords = self.reduce(v)
        if res.any():
            raise ValueError("vector not in span")
        return coords

    def batch_coords(self, V):
        """Coordinates for many vectors at once; V has shape (N, width)."""
        V = np.asarray(V, dtype=np.int64)
        if self.residual(V).any():
            raise ValueError("some vector not in span")
        return V[:, self.pivots]


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


def charpoly_batched(field, A, terms=None) -> np.ndarray:
    """Leading coefficients of the characteristic polynomials of a stack.

    A has shape (N, m, m); the result has shape (N, T) with T = m + 1 for
    terms=None, else T = min(terms, m + 1): the first T coefficients in
    descending power order, leading coefficient 1.  Samuelson-Berkowitz:
    division-free, extends the char poly p_i of the leading i x i block
    A_i to p_{i+1} with the Krylov scalars s_k = R A_i^k C, k < i (R and C
    the new row and column of A_{i+1}, a its corner entry).  In descending
    coefficients, with p_i[u] = 0 outside 0 <= u <= i,

        p_{i+1}[t] = p_i[t] - a p_i[t-1] - sum_k s_k p_i[t-k-2].

    Why truncation is exact: coefficient t < T of p_{i+1} reads p_i only
    at indices <= t < T, and s_k only for k <= t - 2 <= T - 3.  So by
    induction on i the first T coefficients of every p_i follow from the
    first T of its predecessor.  Each step keeps min(i + 2, T)
    coefficients and forms max(0, min(i, T - 2)) Krylov scalars instead
    of i, with one matrix-vector product fewer than scalars.  The full
    polynomial is the case T = m + 1, through the same recurrence.
    """
    A = np.asarray(A, dtype=np.int64)
    N, m, _ = A.shape
    T = m + 1 if terms is None else min(terms, m + 1)
    polys = np.ones((N, min(1, T)), dtype=np.int64)
    for i in range(m):
        width = min(i + 2, T)  # coefficients of p_{i+1} kept
        nk = max(0, min(i, T - 2))  # Krylov scalars those coefficients read
        Ai = A[:, :i, :i]
        Rrow = A[:, i, :i]
        Ccol = A[:, :i, i]
        a = A[:, i, i]
        # s[k] = Rrow . Ai^k . Ccol
        s = np.zeros((N, nk), dtype=np.int64)
        v = Ccol
        for k in range(nk):
            s[:, k] = field.vsum(field.vmul(Rrow, v), axis=1)
            if k < nk - 1:
                v = field.vmatmul(Ai, v[:, :, None])[:, :, 0]
        # p_{i+1}[t] = p_i[t] - a p_i[t-1] - sum_k s_k p_i[t-k-2], for t < width
        new = np.zeros((N, width), dtype=np.int64)
        new[:, : polys.shape[1]] = polys
        new[:, 1:] = field.vsubmul(new[:, 1:], a[:, None], polys[:, : width - 1])
        for k in range(nk):
            new[:, k + 2 :] = field.vsubmul(new[:, k + 2 :], s[:, k][:, None],
                                            polys[:, : width - k - 2])
        polys = new
    return polys


class _KrylovTracker:
    """Incremental echelon with coordinate tracking in the original rows.

    Feed vectors one at a time; the first vector that is dependent on the
    earlier ones yields its combination coefficients.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []  # echelonized (vector, combo) pairs
        self.pivots = []
        self.count = 0

    def add(self, v):
        """Returns None if independent, else combination coefficients."""
        F = self.field
        v = np.array(v, dtype=np.int64).ravel()
        combo = np.zeros(self.count + 1, dtype=np.int64)
        combo[self.count] = 1
        for (w, cw), p in zip(self.rows, self.pivots):
            c = int(v[p])
            if c:
                v = F.vsubmul(v, c, w)
                combo[: len(cw)] = F.vsubmul(combo[: len(cw)], c, cw)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return combo
        p = int(nz[0])
        inv = F.inv(int(v[p]))
        self.rows.append((F.vmul(v, inv), F.vmul(combo, inv)))
        self.pivots.append(p)
        self.count += 1
        return None


def poly_at_matrix(field, f: Poly, A) -> np.ndarray:
    """f(A) for a square matrix A, by Horner's rule."""
    eye = field.eye(A.shape[0])
    acc = field.zeros(A.shape)
    for c in reversed(f.codes):
        acc = field.vadd(field.vmatmul(acc, A), field.vmul(c, eye))
    return acc


def min_poly(field, A) -> Poly:
    """Minimal polynomial of a square matrix: min_poly_of_action for the
    action X -> X A on flattened m x m matrices, from the identity."""
    A = np.asarray(A, dtype=np.int64)
    m = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("minimal polynomial of non-square matrix")
    return min_poly_of_action(field, lambda v: field.vmatmul(v.reshape(m, m), A).ravel(),
                              m * m, field.eye(m).ravel())


def min_poly_of_action(field, mul, dim: int, start) -> Poly:
    """Minimal polynomial of an element given its multiplication action.

    mul(v) must return the product x*v in coordinates; start is the
    coordinate vector of the identity.  Iterates powers of the element
    itself, so the cost stays linear in the ambient dimension.
    """
    tracker = _KrylovTracker(field)
    cur = np.array(start, dtype=np.int64)
    for k in range(dim + 1):
        combo = tracker.add(cur)
        if combo is not None:
            return Poly(field, [int(c) for c in combo])
        cur = mul(cur)
    raise AssertionError("no dependence among element powers")
