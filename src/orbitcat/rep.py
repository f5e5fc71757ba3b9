"""Modules over a structure-constant algebra and their decompositions.

A Module stores its action as one (dim A, n, n) array, matrix i acting
as basis element b_i on column vectors, and a hom space its basis as one
(k, n, m) array.  Every check that a map commutes with the action runs
over the algebra's generators only (``Algebra.generators``): a linear map
that commutes with rho(g) for each generator g commutes with rho of every
word in them, and the words span the algebra.  Hom spaces are kernels of
that intertwining system, one Kronecker block per generator (for Mat6 that
is 10 blocks instead of 36), built on the unknowns that can be nonzero
only.  When the algebra's unit is a sum of orthogonal idempotent basis
elements (its unit pieces), a module map carries each piece's image into
itself in every basis, so both modules are put into the basis of those
images and only the unknowns inside one piece are kept.  From 256 unknowns
the system is split too: coordinate blocks that every generator maps into
themselves are submodules, and Hom((+)_I M_I, (+)_J N_J) =
(+)_{I, J} Hom(M_I, N_J), so one small system is solved per pair of blocks.
Either way the reduced echelon basis is the one the whole system gives,
because a subspace has one.  Endomorphism algebras
come with their matrix embedding.  When End(M) was solved over the unit
pieces, it is built in the pieces' basis that hom_space hands over: there
every endomorphism is block-diagonal, so its products are per-piece block
products, and it carries that block-diagonal representation, with its
blocks, to the radical.  Krull-Schmidt decomposition routes
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
    _diagonal_blocks,
    _row_blocks,
    algebra_on_span,
    is_local,
    primitive_orthogonal_idempotents,
)
from .linalg import (
    SpanSolver,
    is_invertible,
    kernel_basis,
    rref,
    solve,
)

# hom systems with at least this many unknowns (m n) are solved per pair of
# coordinate blocks (_coordinate_blocks).  End(M) per call, one block against
# split (2-core x86_64, one BLAS thread, best of 31 interleaved): 81 unknowns
# in 3 x 3 blocks (F3C3 regular x 3) 1.34 against 2.00 ms; 256 in 4 x 4
# blocks (F2 Klein regular x 4) 6.1 against 4.7 ms.  Over the unit pieces the
# split costs time but halves the rref cells: the ladder's permuted regular
# Mat6/F3 8.4 against 9.0 ms, at 132,192 against 56,592 cells
_SPLIT_GATE = 256

# hom systems with at least this many unknowns are solved over the unit
# pieces when the algebra has them (Algebra.unit_pieces).  Per call, every
# unknown against the pieces' only, median over the engine and orbit
# workloads' hom_space calls (2-core x86_64, one BLAS thread, best of 11):
# 12 unknowns 0.31 against 0.39 ms; 16 0.35 against 0.32; 24 0.58 against
# 0.52; 25 0.56 against 0.49; 36 1.03 against 0.68; 144 18.2 against 2.6 ms
_PIECE_GATE = 25


class Module:
    """Finite-dimensional left module given by action matrices."""

    def __init__(self, algebra: Algebra, mats: Sequence, blocks=None,
                 validate: bool = True):
        self.algebra = algebra
        if len(mats) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        try:  # matrices of unequal shapes make no array
            mats = (np.ascontiguousarray(mats, dtype=np.int64) if algebra.dim
                    else np.zeros((0, 0, 0), dtype=np.int64))
        except ValueError:
            mats = None
        if mats is None or mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("action matrices must be square of equal size")
        self.mats, self.dim = mats, mats.shape[1]  # mats: (algebra dim, dim, dim)
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

    def act(self, x) -> np.ndarray:
        """Action matrix of the algebra element with coordinates x."""
        return self.field.combine(x, self.mats)

    def gen_mats(self) -> np.ndarray:
        """The action of the algebra's generators, shape (g, dim, dim)."""
        return self.field.combine(self.algebra.generators, self.mats)

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

        def check(x):
            # entry j: rho(x) rho(b_j) and rho(x b_j)
            return F.vmatmul(self.act(x), self.mats), F.combine(F.combine(x, A.struct), self.mats)

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
            and np.array_equal(self.mats, other.mats)
        )

    def equal_with_blocks(self, other) -> bool:
        return self == other and self.blocks == other.blocks

    def __hash__(self):
        return hash((id(self.algebra), self.dim, self.mats.tobytes()))

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
    basis: np.ndarray  # (dim, tgt.dim, src.dim), echelonized order
    # (T, T^-1, labels) of _piece_basis when the system was solved over the
    # unit pieces and the target is the source; None otherwise
    pieces: Optional[tuple] = None

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


def hom_system(F, GM, GN, lm, ln) -> np.ndarray:
    """The linear system of N_g f - f M_g = 0 over the generators g, on the
    kept unknowns f[c, b] of the (n, m) matrix f, those with ln[c] == lm[b],
    in row-major order: the rows of (N_g (x) I_m) - (I_n (x) M_g^T) on the
    kept columns that are not zero by construction, shape (rows, kept).  GM
    and GN are (g, m, m) and (g, n, n); lm and ln label their coordinates.

    Row (a, b) of generator g holds N_g[a, c] at column (c, b) and
    -M_g[e, b] at column (a, e); the two meet where c = a and e = b.  So it
    is zero on the kept columns unless N_g[a, c] != 0 for a kept (c, b) or
    M_g[e, b] != 0 for a kept (a, e).  The system holds the rows with such
    a c, then the other rows with such an e, which carry only -M_g[:, b],
    each part in (g, a, b) order.  With constant labels and every row of
    every N_g nonzero it is the whole stack, in generator order.  Leaving
    rows out is exact: a zero row constrains nothing, so the row space, and
    with it every kernel basis, is that of the stack on the kept columns."""
    m, n = GM.shape[1], GN.shape[1]
    keep = ln[:, None] == lm  # keep[c, b]: the unknown f[c, b] is kept
    # col[c, b]: 1 + the column of f[c, b] if it is kept, else the cut-off 0
    col = keep.cumsum().reshape(n, m) * keep
    neg = F.vneg(GM.transpose(0, 2, 1))  # neg[g, b, e] = -M_g[e, b]
    # meet[g, a, b] = N_g[a, a] - M_g[b, b], written over the other two parts
    meet = F.vadd(GN.diagonal(axis1=1, axis2=2)[:, :, None],
                  neg.diagonal(axis1=1, axis2=2)[:, None, :])
    via_n = (GN != 0) @ keep  # via_n[g, a, b]: N_g[a, c] != 0 for a kept (c, b)
    g_l, a_l, b_l = np.nonzero(via_n)
    g_d, a_d, b_d = np.nonzero((keep @ (GM != 0)) & ~via_n)
    rows = len(a_l)
    system = np.zeros((rows + len(a_d), np.count_nonzero(keep) + 1), dtype=np.int64)
    r = np.arange(rows)
    system[r[:, None], col.T[b_l]] = GN[g_l, a_l]
    system[r[:, None], col[a_l]] = neg[g_l, b_l]
    system[r, col[a_l, b_l]] = meet[g_l, a_l, b_l]
    system[np.arange(rows, len(system))[:, None], col[a_d]] = neg[g_d, b_d]
    return system[:, 1:]


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


def _piece_basis(M: Module, pieces, role: str):
    """(T, T^-1, labels): the basis of M adapted to the algebra's unit
    pieces.  The columns of T are the rows of rref(P_v^T), P_v = M.mats[v],
    piece after piece; T^-1 stacks the rows P_v[pivots] in the same order,
    and labels[a] is the piece of column a.  Raises ValueError, naming M,
    unless T^-1 T = I."""
    F = M.field
    cols, rows, labels = [], [], []
    for i, v in enumerate(pieces):
        P = M.mats[v]
        B, piv = rref(F, P.T)
        cols.append(B)
        rows.append(P[piv])
        labels += [i] * len(piv)
    T, Ti = np.concatenate(cols).T, np.concatenate(rows)
    if Ti.shape != (M.dim, M.dim) or not np.array_equal(F.vmatmul(Ti, T), F.eye(M.dim)):
        raise ValueError(f"the unit pieces of the {role} module {M!r} do not act as "
                         "complementary projections")
    return T, Ti, np.array(labels)


def hom_space(M: Module, N: Module) -> HomSpace:
    """Solution space of f rho_M(g) = rho_N(g) f over the generators g,
    echelonized.

    One loop solves hom_system for each pair (I, J) of coordinate blocks
    (from _SPLIT_GATE unknowns on those of _coordinate_blocks, else one per
    module) on the unknowns whose labels match, and places each kernel
    vector in f.  The labels are 0 unless the algebra has unit pieces b_v
    (Algebra.unit_pieces) and m n >= _PIECE_GATE: then M and N are put into
    their pieces' basis (_piece_basis), a label is a piece, and a solution
    f' gives f = T_N f' T_M^-1.  The basis is the whole system's:
    - T^-1 T = I proves the P_v complementary projections.  For every
      matrix P_v, P_v = T_v T^-1_v, with T_v the columns and T^-1_v the
      rows of piece v: the rows of rref(P_v^T) span the columns of P_v and
      are the identity at the pivots.  So P_v P_w = T_v (T^-1_v T_w) T^-1_w
      is P_v when v = w and 0 otherwise, and sum_v P_v = T T^-1 = I.
    - f is in Hom(M, N) iff f' = T_N^-1 f T_M solves the system of the
      adapted generators T^-1 rho(g) T.  Such f commutes with rho(b_v), so
      f T_{M,v} = P_{N,v} f T_{M,v} and block (w, v) of f' is
      T^-1_{N,w} P_{N,v} f T_{M,v} = 0 for w != v: the dropped unknowns are
      zero on Hom.
    - A coordinate block that every generator maps into itself spans a
      submodule (generator words span the algebra), so Hom(M, N) =
      (+)_{I, J} Hom(M_I, N_J): f solves the system exactly when each block
      f[J, I] solves the system of its pair.
    So the placed kernel vectors span Hom(M, N): one reduced echelon form.
    For N is M over the pieces, (T, T^-1, labels) is handed over as
    HomSpace.pieces, and end_algebra builds End(M) in that basis."""
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    F = M.field
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return HomSpace(M, N, np.zeros((0, n, m), dtype=np.int64))
    GM, GN = M.gen_mats(), N.gen_mats()
    lm, ln = np.zeros(m, dtype=np.int64), np.zeros(n, dtype=np.int64)
    pieces = M.algebra.unit_pieces if m * n >= _PIECE_GATE else ()
    if pieces:
        TM, TMi, lm = _piece_basis(M, pieces, "source")
        TN, TNi, ln = (TM, TMi, lm) if N is M else _piece_basis(N, pieces, "target")
        GM = F.vmatmul(TMi, F.vmatmul(GM, TM))
        GN = GM if N is M else F.vmatmul(TNi, F.vmatmul(GN, TN))
    src, tgt = [np.arange(m)], [np.arange(n)]
    if m * n >= _SPLIT_GATE:
        src = _coordinate_blocks(GM)
        tgt = src if N is M else _coordinate_blocks(GN)
    vecs = [np.zeros((0, n * m), dtype=np.int64)]
    for J in tgt:
        for I in src:
            lI, lJ = lm[I], ln[J]
            ks = kernel_basis(F, hom_system(F, GM.take(I, 1).take(I, 2),
                                            GN.take(J, 1).take(J, 2), lI, lJ))
            if ks:
                # the kept unknowns f[J[c], I[b]], in the system's column order
                f = np.zeros((len(ks), n * m), dtype=np.int64)
                f[:, (J[:, None] * m + I)[lJ[:, None] == lI]] = ks
                vecs.append(f)
    vecs = np.concatenate(vecs)
    if pieces and len(vecs):
        vecs = F.vmatmul(TN, F.vmatmul(vecs.reshape(-1, n, m), TMi)).reshape(-1, n * m)
    if len(vecs):
        # canonical form: the flattened basis stack is in reduced echelon form,
        # so coordinate solvers built on it are consistent with this basis
        vecs = rref(F, vecs)[0]
    return HomSpace(M, N, vecs.reshape(-1, n, m),
                    pieces=(TM, TMi, lm) if pieces and N is M else None)


def end_algebra(M: Module):
    """(endomorphism algebra, its matrix basis).  Product is composition.

    When hom_space solved End(M) over the unit pieces, E is built in the
    pieces' basis it hands over: f' = T^-1 f T is zero off the diagonal
    blocks of the pieces (see hom_space), so f' is stored as its blocks
    f'_v, concatenated, and f' g' is the product block by block.  The map
    f -> f' keeps composition, so the structure constants and the unit are
    those of the basis itself; f' is E's representation, with the pieces'
    sizes as its blocks (the radical's stages run per piece).  An f' with
    an entry off the blocks raises CertificationError.  Otherwise the
    products are the whole matrices', and the representation the basis."""
    F = M.field
    H = hom_space(M, M)
    basis, k = H.basis, len(H.basis)
    if H.pieces is None:
        # row i: f_i after f_j for every j, one row at a time to bound memory
        products = (F.vmatmul(f, basis) for f in basis)
        return algebra_on_span(F, basis, products, F.eye(M.dim), rep=basis), basis
    T, Ti, labels = H.pieces
    adapted = F.vmatmul(Ti, F.vmatmul(basis, T))
    if adapted[:, labels[:, None] != labels].any():
        raise CertificationError("an endomorphism moves a unit piece's image")
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]  # a piece that acts as zero on M has no block
    blocks = _diagonal_blocks(adapted, sizes)
    flat = np.concatenate([X.reshape(k, -1) for X in blocks], axis=1)
    # rows i of a block: f'_i after f'_j for every j, piece by piece.  The
    # blocks are sized for whole n x n products (k n^2 cells a row): sized
    # for the pieces' own cells, the blocks of End(regular Mat6/F3) took
    # its tracemalloc peak from 2.5 to 9.4 MB, at no gain in time
    products = (np.concatenate([F.vmatmul(X[blk, None], X[None]).reshape(
        blk.stop - blk.start, k, -1) for X in blocks], axis=2)
        for blk in _row_blocks(k, k * M.dim ** 2))
    unit = np.concatenate([F.eye(sz).ravel() for sz in sizes])
    E = algebra_on_span(F, flat, products, unit, rep=adapted, rep_blocks=sizes)
    return E, basis


def twist(M: Module, g: AlgebraAut) -> Module:
    """Module with the action transported through the automorphism:
    the new action of b is the old action of g^{-1}(b)."""
    mats = M.field.combine(g.inverse_matrix().T, M.mats)
    return Module(M.algebra, mats, blocks=M.blocks, validate=False)


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
        mats[:, off : off + m.dim, off : off + m.dim] = m.mats
        off += m.dim
    if labels is None:
        blocks = tuple((None, m.dim) for m in mods)
    else:
        blocks = tuple((lab, m.dim) for lab, m in zip(labels, mods))
    S = Module(A, mats, blocks=blocks, validate=False)
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
    return Module(A, np.zeros((A.dim, 0, 0), dtype=np.int64), validate=False)


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
    if iso is None and len(H.basis) and not is_local(end_algebra(M)[0]):
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
    mats = F.vmatmul(pr, F.vmatmul(M.mats, inc))
    S = Module(M.algebra, mats, validate=False)
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
    reps.sort(key=lambda S: (S.dim, S.mats.tobytes()))
    return reps


def submodule_span(M: Module, vectors) -> np.ndarray:
    """Echelon basis of the submodule generated by the given vectors.

    The span grows by the generators' images until one step adds nothing:
    the input is echelonized first, so its rank, not its number of rows,
    is what a step is compared with."""
    F = M.field
    rows, _ = rref(F, np.atleast_2d(np.asarray(vectors, dtype=np.int64)))
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
        ginv = solve(F, g, F.eye(m))  # None exactly when g is singular
        if ginv is not None:
            break
    if not np.array_equal(F.vmatmul(g, ginv), F.eye(m)):
        raise CertificationError("base change times its inverse is not the identity")
    return Module(M.algebra, F.vmatmul(g, F.vmatmul(M.mats, ginv)), validate=False)
