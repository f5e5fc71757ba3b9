"""Modules over a structure-constant algebra and their decompositions.

A Module stores one action matrix per algebra basis element (acting on
column vectors).  Every check that a map commutes with the action runs
over the algebra's generators only (``Algebra.generators``): a linear map
that commutes with rho(g) for each generator g commutes with rho of every
word in them, and the words span the algebra.  Hom spaces are kernels of
that intertwining system, one Kronecker block per generator (for Mat6 that
is 10 blocks instead of 36).  A large system is split first: coordinate
blocks that every generator maps into themselves are submodules, and
Hom((+)_I M_I, (+)_J N_J) = (+)_{I, J} Hom(M_I, N_J), so one small system is
solved per pair of blocks; the reduced echelon basis of the sum is the one
the whole system gives, because a subspace has one.  Endomorphism algebras
come with their matrix embedding, and Krull-Schmidt decomposition routes
through the primitive orthogonal idempotents of the endomorphism algebra:
each idempotent's image carries the restricted action, with explicit
inclusion/projection witnesses so every multiplicity downstream is
re-checkable by rank computations.

Direct sums track an optional block label per summand (the group element
that twisted the block); the orbit-side functors sort blocks by label so
that functor factorizations hold as exact matrix equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    Algebra,
    AlgebraAut,
    CertificationError,
    algebra_on_span,
    primitive_orthogonal_idempotents,
)
from .linalg import (
    SpanSolver,
    inverse,
    is_invertible,
    kernel_basis,
    rref,
    solve,
)

# hom systems with fewer unknowns (m n) than this are solved whole: below it
# the fixed numpy cost of one system per block pair outweighs the smaller
# eliminations.  Per call, whole against split (2-core x86_64, one BLAS
# thread): 81 unknowns in 3 x 3 blocks 1.3-1.8 ms against 1.8-2.3 ms; 256 in
# 4 x 4 blocks (regular Mat4/F3, Mat4/F16) 5.8 and 7.4 ms against 4.7 and
# 7.5 ms; 625 in 5 x 5 blocks 22 ms against 10 ms; 1296 in 6 x 6 blocks
# (regular Mat6/F3) 120 ms against 21 ms
_SPLIT_GATE = 256


class Module:
    """Finite-dimensional left module given by action matrices."""

    def __init__(self, algebra: Algebra, mats: Sequence, blocks=None,
                 validate: bool = True):
        self.algebra = algebra
        self.mats = [np.asarray(m, dtype=np.int64) for m in mats]
        if len(self.mats) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        self.dim = self.mats[0].shape[0] if self.mats else 0
        for m in self.mats:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrices must be square of equal size")
        # blocks: tuple of (label or None, size); labels are group elements
        if blocks is None:
            blocks = ((None, self.dim),) if self.dim else ()
        self.blocks = tuple((lab, int(sz)) for lab, sz in blocks)
        if sum(sz for _, sz in self.blocks) != self.dim:
            raise ValueError("block sizes do not sum to the dimension")
        if validate:
            self.validate()

    @property
    def field(self):
        return self.algebra.field

    def stack(self) -> np.ndarray:
        """The action matrices as one (algebra dim, dim, dim) array."""
        return np.array(self.mats, dtype=np.int64).reshape(len(self.mats), self.dim, self.dim)

    def act(self, x) -> np.ndarray:
        """Action matrix of the algebra element with coordinates x."""
        return self.field.combine(x, self.stack())

    def gen_mats(self) -> np.ndarray:
        """The action of the algebra's generators, shape (g, dim, dim)."""
        return self.field.combine(self.algebra.generators, self.stack())

    def validate(self):
        """rho(1) = I and rho(g) rho(b_j) = rho(g b_j) for every generator g.

        The x with rho(x) rho(y) = rho(x y) for all y form a subspace that
        holds 1 and the generators, and with x it holds g x:
        rho(g x) rho(y) = rho(g) rho(x) rho(y) = rho(g) rho(x y) = rho(g x y).
        So it holds every right-nested generator word, hence all of A."""
        A, F = self.algebra, self.field
        if A.dim == 0:
            return
        if not np.array_equal(self.act(A.unit), F.eye(self.dim)):
            raise ValueError("unit does not act as the identity")
        stack = self.stack()

        def check(x):
            # entry j: rho(x) rho(b_j) and rho(x b_j)
            return F.vmatmul(self.act(x), stack), F.combine(F.combine(x, A.struct), stack)

        bad = A.first_defect(check)
        if bad is not None:
            raise ValueError(f"action violates structure constants at ({bad[0]}, {bad[1]})")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Module)
            and self.dim == other.dim
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and all(np.array_equal(a, b) for a, b in zip(self.mats, other.mats))
        )

    def equal_with_blocks(self, other) -> bool:
        return self == other and self.blocks == other.blocks

    def __hash__(self):
        return hash((id(self.algebra), self.dim) + tuple(m.tobytes() for m in self.mats))

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


@dataclass
class ModuleMor:
    """A module morphism with explicit source and target."""

    src: Module
    tgt: Module
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64)
        if self.matrix.shape != (self.tgt.dim, self.src.dim):
            raise ValueError("morphism matrix has wrong shape")

    def validate(self):
        """f rho_src(g) = rho_tgt(g) f for every generator g of the algebra."""
        F, f = self.src.field, self.matrix
        bad = self.src.algebra.first_defect(
            lambda x: (F.vmatmul(f, self.src.act(x)), F.vmatmul(self.tgt.act(x), f)))
        if bad is not None:
            raise ValueError(f"not an intertwiner at basis element {bad[0]}")
        return self

    def compose(self, other: "ModuleMor") -> "ModuleMor":
        """self after other."""
        if other.tgt is not self.src and other.tgt != self.src:
            raise ValueError("morphism composition mismatch")
        F = self.src.field
        return ModuleMor(other.src, self.tgt, F.vmatmul(self.matrix, other.matrix))


@dataclass
class HomSpace:
    source: Module
    target: Module
    basis: list  # list of (tgt.dim, src.dim) matrices, echelonized order

    @property
    def dim(self):
        return len(self.basis)


@dataclass
class Summand:
    module: Module
    multiplicity: int
    witnesses: list  # list of (inclusion, projection) matrix pairs


@dataclass
class Decomposition:
    module: Module
    summands: List[Summand]
    # every summand's endomorphism ring is local and the witnesses are
    # checked: see decompose
    certified_local: bool = False

    def signature(self):
        """Multiset of (dimension, multiplicity), dimension-aggregated."""
        agg = {}
        for s in self.summands:
            agg[s.module.dim] = agg.get(s.module.dim, 0) + s.multiplicity
        return sorted(agg.items())


def hom_system(F, GM, GN) -> np.ndarray:
    """The linear system of N_g f - f M_g = 0 over the generators g, on
    the row-major vec of the (n, m) matrix f: the rows of
    (N_g (x) I_m) - (I_n (x) M_g^T) that are not zero by construction,
    shape (rows, n m).  GM and GN are (g, m, m) and (g, n, n).

    Row (a, b) of generator g holds N_g[a, c] at column (c, b) and
    -M_g[e, b] at column (a, e); the two meet where c = a and e = b.  So
    it is zero when row a of N_g and column b of M_g both are.  When every
    row of every N_g is nonzero the system is the whole stack, in
    generator order.  Otherwise it holds the rows (a, b) with N_g[a] != 0,
    for every b, then the rows with N_g[a] = 0 and M_g[:, b] != 0, which
    carry only -M_g[:, b].

    Leaving rows out is exact: a zero row constrains nothing, so the
    row space, and with it the reduced echelon form and every kernel
    basis taken from it, is the same as for the full Kronecker stack."""
    m, n = GM.shape[1], GN.shape[1]
    neg = F.vneg(GM.transpose(0, 2, 1))  # neg[g, b, e] = -M_g[e, b]
    # meet[g, a, b] = N_g[a, a] - M_g[b, b], written over the other two parts
    meet = F.vadd(GN.diagonal(axis1=1, axis2=2)[:, :, None],
                  neg.diagonal(axis1=1, axis2=2)[:, None, :])
    live = GN.any(axis=2)  # live[g, a]: row a of N_g is nonzero
    b = np.arange(m)
    # the three parts on the live rows only, then the -M_g rows
    g_l, a_l = np.nonzero(live)
    g_d, a_d, b_d = np.nonzero(~live[:, :, None] & GM.any(axis=1)[:, None, :])
    rows = len(a_l) * m
    system = np.zeros((rows + len(a_d), n * m), dtype=np.int64)
    block, k = system[:rows].reshape(len(a_l), m, n, m), np.arange(len(a_l))
    block[:, b, :, b] = GN[g_l, a_l]
    block[k, :, a_l, :] = neg[g_l]
    block[k[:, None], b, a_l[:, None], b] = meet[g_l, a_l]
    system[np.arange(rows, len(system))[:, None], a_d[:, None] * m + b] = neg[g_d, b_d]
    return system


def _coordinate_blocks(G) -> List[np.ndarray]:
    """The finest partition of range(dim) into coordinate blocks that every
    matrix of the (g, dim, dim) stack G maps into itself, as sorted index
    arrays ordered by their first index.

    Coordinates a and b share a block when some G[k, a, b] != 0: the
    blocks are the connected components of the union of the nonzero
    patterns, made symmetric, and every G[k] is zero off them."""
    d = G.shape[1]
    link = G.any(axis=0)
    link |= link.T
    if d == 1 or link.all():
        return [np.arange(d)]
    # reach[a, b]: a path joins a to b; each squaring doubles the length
    reach = (link | np.eye(d, dtype=bool)).astype(np.float32)
    while True:
        step = (reach @ reach > 0).astype(np.float32)
        if np.array_equal(step, reach):
            break
        reach = step
    # a coordinate heads its block when it is the block's smallest
    heads = np.flatnonzero(reach.argmax(axis=1) == np.arange(d))
    return [np.flatnonzero(reach[a]) for a in heads]


def hom_space(M: Module, N: Module) -> HomSpace:
    """Solution space of f rho_M(g) = rho_N(g) f over the generators g,
    echelonized.

    A coordinate block that every generator maps into itself spans a
    submodule (generator words span the algebra), so M = (+)_I M_I and
    N = (+)_J N_J over the blocks of _coordinate_blocks, and
    Hom(M, N) = (+)_{I, J} Hom(M_I, N_J): f solves the system exactly when
    each block f[J, I] solves the system of its pair.  Above _SPLIT_GATE
    unknowns one small system is solved per pair and each kernel vector is
    placed at its (J, I) positions.  The stacked vectors span the same
    subspace as the kernel of the whole system, and a subspace has one
    reduced echelon form, so the basis is the same either way."""
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    F = M.field
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return HomSpace(M, N, [])
    GM, GN = M.gen_mats(), N.gen_mats()
    src, tgt = [np.arange(m)], [np.arange(n)]
    if m * n >= _SPLIT_GATE:
        src = _coordinate_blocks(GM)
        tgt = src if N is M else _coordinate_blocks(GN)
    if len(src) == len(tgt) == 1:
        vecs = kernel_basis(F, hom_system(F, GM, GN))
    else:
        vecs = []
        for J in tgt:
            for I in src:
                for k in kernel_basis(F, hom_system(F, GM[:, I[:, None], I],
                                                    GN[:, J[:, None], J])):
                    f = np.zeros((n, m), dtype=np.int64)
                    f[J[:, None], I] = k.reshape(len(J), len(I))
                    vecs.append(f.reshape(-1))
    if vecs:
        # canonical form: the flattened basis stack is in reduced echelon form,
        # so coordinate solvers built on it are consistent with this basis
        vecs = list(rref(F, np.stack(vecs))[0])
    basis = [v.reshape(n, m) for v in vecs]
    return HomSpace(M, N, basis)


def end_algebra(M: Module):
    """(endomorphism algebra, its matrix basis).  Product is composition."""
    F = M.field
    H = hom_space(M, M)
    stack = np.asarray(H.basis, dtype=np.int64).reshape(len(H.basis), M.dim, M.dim)
    # row i: f_i after f_j for every j, one row at a time to bound memory
    products = (F.vmatmul(f, stack) for f in stack)
    E = algebra_on_span(F, stack, products, F.eye(M.dim), rep=H.basis)
    return E, H.basis


def twist(M: Module, g: AlgebraAut) -> Module:
    """Module with the action transported through the automorphism:
    the new action of b is the old action of g^{-1}(b)."""
    mats = M.field.combine(g.inverse_matrix().T, M.stack())
    return Module(M.algebra, list(mats), blocks=M.blocks, validate=False)


def direct_sum(mods: Sequence[Module], labels=None):
    """Block-diagonal sum.  Returns (module, inclusions, projections)."""
    if len(mods) == 0:
        raise ValueError("direct_sum of an empty list needs an algebra; use zero_module")
    A = mods[0].algebra
    F = mods[0].field
    for m in mods:
        if m.algebra is not A and m.algebra != A:
            raise ValueError("modules over different algebras")
    total = sum(m.dim for m in mods)
    mats = F.zeros((A.dim, total, total))
    off = 0
    for m in mods:
        mats[:, off : off + m.dim, off : off + m.dim] = m.stack()
        off += m.dim
    if labels is None:
        blocks = tuple((None, m.dim) for m in mods)
    else:
        blocks = tuple((lab, m.dim) for lab, m in zip(labels, mods))
    S = Module(A, list(mats), blocks=blocks, validate=False)
    incls, projs = [], []
    off = 0
    for m in mods:
        inc = F.zeros((total, m.dim))
        inc[off : off + m.dim] = F.eye(m.dim)
        pr = F.zeros((m.dim, total))
        pr[:, off : off + m.dim] = F.eye(m.dim)
        incls.append(ModuleMor(m, S, inc))
        projs.append(ModuleMor(S, m, pr))
        off += m.dim
    return S, incls, projs


def zero_module(A: Algebra) -> Module:
    return Module(A, [np.zeros((0, 0), dtype=np.int64)] * A.dim, validate=False)


def regular_module(A: Algebra) -> Module:
    return Module(A, A.regular_rep(), validate=False)


def is_isomorphic(M: Module, N: Module) -> Optional[np.ndarray]:
    """An invertible intertwiner M -> N, or None: the first invertible
    element of the echelonized basis of Hom(M, N).

    The scan decides the question when Hom(M, N) is empty (then "no" for
    any M) or when M is indecomposable: the non-isomorphisms M -> N then
    form a proper subspace of Hom(M, N) (End(M) is local), so a basis
    cannot avoid the isomorphisms.  A nonempty Hom with no invertible basis
    element and a decomposable M decides nothing, and raises ValueError:
    compare such modules class by class through decompose.
    """
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    F = M.field
    H = hom_space(M, N)
    iso = next((f for f in H.basis if is_invertible(F, f)), None)
    if iso is None and H.basis and len(primitive_orthogonal_idempotents(end_algebra(M)[0])) != 1:
        raise ValueError("no invertible element in the hom basis of a decomposable module; "
                         "compare its summands class by class")
    return iso


def submodule_from_image(M: Module, P) -> Tuple[Module, np.ndarray, np.ndarray]:
    """The image of an idempotent endomorphism P as a module.

    Returns (summand, inclusion, projection) with inclusion @ projection = P
    and projection @ inclusion = identity."""
    F = M.field
    P = np.asarray(P, dtype=np.int64)
    basis, _ = rref(F, P.T)  # rows span the column space of P
    k = len(basis)
    inc = basis.T  # (dim, k)
    pr = solve(F, inc, P)
    if pr is None:
        raise CertificationError("image basis does not span the image of P")
    if not np.array_equal(F.vmatmul(pr, inc), F.eye(k)):
        raise ValueError("image basis does not split the idempotent")
    mats = F.vmatmul(pr, F.vmatmul(M.stack(), inc))
    S = Module(M.algebra, list(mats), validate=False)
    return S, inc, pr


def decompose(M: Module, certify: bool = True) -> Decomposition:
    """Indecomposable summands with multiplicities and explicit witnesses.

    Splits along the primitive orthogonal idempotents of E = End(M); each
    summand S is the image of one idempotent e with the restricted action.
    End(S) is local without a test of its own: f -> inc f pr is an
    isomorphism End(S) -> eEe, because pr inc = id_S and inc pr = e, and
    primitive_orthogonal_idempotents has certified every eEe local on the
    field leaf of its semisimple split.

    The summands are grouped by the classes of that same call: S_e and S_r
    are isomorphic iff eE and rE are (Hom(S_e, S_r) = rEe, by
    f -> inc_r f pr_e), and the certified pair alpha in rEe, beta in eEr
    with beta alpha = e, alpha beta = r gives a copy's witnesses through
    its class representative r with no solve: inc = beta inc_r and
    pr = pr_r alpha, so pr inc = pr_r r inc_r = id and inc pr = beta alpha
    = e.  Classes and copies keep their order of first appearance, and
    every copy includes the representative's module.  When certify is set,
    the witness identities are verified and the result is marked
    certified_local.
    """
    F = M.field
    if M.dim == 0:
        return Decomposition(M, [], certified_local=True)
    E, emb = end_algebra(M)
    es = primitive_orthogonal_idempotents(E)
    emb = np.stack(emb)
    summands: List[Summand] = []
    for evec, label, (alpha, beta) in zip(es, es.labels, es.isos):
        if label == len(summands):
            S, inc, pr = submodule_from_image(M, F.combine(evec, emb))
            summands.append(Summand(S, 1, [(inc, pr)]))
            continue
        s = summands[label]
        inc, pr = s.witnesses[0]
        s.witnesses.append((F.vmatmul(F.combine(beta, emb), inc),
                            F.vmatmul(pr, F.combine(alpha, emb))))
        s.multiplicity += 1
    dec = Decomposition(M, summands, certified_local=False)
    if certify:
        total = F.zeros((M.dim, M.dim))
        for s in summands:
            for inc, pr in s.witnesses:
                if not np.array_equal(F.vmatmul(pr, inc), F.eye(s.module.dim)):
                    raise ValueError("witness pair is not a section/retraction")
                total = F.vadd(total, F.vmatmul(inc, pr))
        if not np.array_equal(total, F.eye(M.dim)):
            raise ValueError("summand witnesses do not sum to the identity")
        dec.certified_local = True
    return dec


def simple_modules(M_algebra: Algebra) -> List[Module]:
    """The simple modules, via the semisimple quotient's regular module."""
    from .algebra import quotient_algebra, radical

    A = M_algebra
    J = radical(A)
    Abar, project, lift = quotient_algebra(A, J)
    # inflate the regular Abar-module to an A-module along the projection
    mats = [Abar.left_mult_matrix(project(b)) for b in A.field.eye(A.dim)]
    inflated = Module(A, mats, validate=False)
    dec = decompose(inflated, certify=False)
    reps = [s.module for s in dec.summands]
    reps.sort(key=lambda S: (S.dim, tuple(m.tobytes() for m in S.mats)))
    return reps


def submodule_span(M: Module, vectors) -> np.ndarray:
    """Echelon basis of the submodule generated by the given vectors."""
    F = M.field
    rows = np.atleast_2d(np.asarray(vectors, dtype=np.int64))
    gens = M.gen_mats()
    while True:
        images = [rows]
        for mat in gens:
            images.append(F.vmatmul(rows, mat.T))
        R, _ = rref(F, np.concatenate(images, axis=0))
        if len(R) == len(rows) or len(R) == M.dim:
            return R
        rows = R


def quotient_module(M: Module, sub_rows) -> Module:
    """Quotient of M by the submodule spanned by the given echelon rows."""
    F = M.field
    sub_rows = np.atleast_2d(np.asarray(sub_rows, dtype=np.int64))
    solver = SpanSolver(F, sub_rows)
    free = sorted(set(range(M.dim)) - set(solver.pivots))
    # rows of mat[:, free].T are the images of the basis vectors outside the
    # pivots; reduce them modulo the submodule and keep their free coordinates
    mats = [solver.residual(mat[:, free].T)[:, free].T for mat in M.mats]
    return Module(M.algebra, mats, validate=False)


def random_base_change(M: Module, rng) -> Module:
    """Conjugate the action by a random invertible matrix (same iso class)."""
    F = M.field
    m = M.dim
    if m == 0:
        return M
    while True:
        g = rng.integers(0, F.q, size=(m, m))
        if is_invertible(F, g):
            break
    ginv = inverse(F, g)
    mats = [F.vmatmul(g, F.vmatmul(a, ginv)) for a in M.mats]
    return Module(M.algebra, mats, validate=False)
