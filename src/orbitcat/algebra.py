"""Finite-dimensional associative unital algebras by structure constants.

An Algebra holds a (d, d, d) tensor c with b_i * b_j = sum_k c[i,j,k] b_k
and the unit's coordinate vector.  Only the radical chain reads a matrix
representation, a (d, n, n) stack, and only the algebras it needs a small
one for carry it: End algebras their hom basis (in the unit pieces' basis
when End(M) was solved over them, block-diagonal, with the pieces' sizes
as Algebra.rep_blocks), and the certificate's quotient the graded
representation below.  Every other algebra runs the chain in its regular
representation, b_i acting by c[i].T.  algebra_on_span builds every
algebra on a span, against any basis of it.

The radical is computed with the characteristic-p chain of Cohen, Ivanyos
and Wales: working inside a faithful representation on an n-dimensional
space, repeatedly shrink the candidate set R by the conditions
c_{p^j}(rep(x y)) = 0 for all y in R, where c_k is the k-th coefficient
of the characteristic polynomial, for j = 0, 1, ... while p^j <= n.  On
each stage the map x -> c_{p^j}(x y) is additive and p^j-semilinear, so
the condition set is cut out by a Frobenius-twisted linear system.  A
stage reads only c_{p^j}, so only the leading p^j + 1 coefficients of
each characteristic polynomial are computed (a truncated Berkowitz
recurrence, exact by the argument in linalg.charpoly_batched), and only
for the unordered pairs {x, y}, as charpoly(xy) = charpoly(yx); for a
block-diagonal representation, as the truncated product of its blocks'
charpolys.  The final set is the Jacobson radical.  Because the chain is
subtle, the result is certified in-op: the span must be a two-sided
ideal, a power of it must vanish, and the quotient must have zero
radical.  The quotient's chain runs in a faithful representation of A/J
on the top layers of gr V = sum J^i V / J^{i+1} V (V the faithful
representation of A), or in A/J's regular representation when that is
no larger.

The certificate is the one builder of the top A/J.  radical keeps what
it built on A as one record (CertifiedRadical: J's SpanSolver, whose
basis is J, and A/J with its project and lift), and every reader of A/J
takes it from there through certified_radical: the idempotents, the
locality test, the simple modules and the class test on a Clifford
run's E_G.  So each algebra object is certified at most once, and its
top built at most once.  For J = 0 the top is A itself; otherwise the
certificate also seeds A/J's own record, as its chain has just found
rad(A/J) = 0.  A record never names its own algebra (the top A is
stored as None): that would be a reference cycle, which frees nothing
until the cyclic garbage collector runs.

Primitive idempotent extraction follows the classical route: split the
semisimple quotient (Berlekamp fixed space of the q-power Frobenius on
the center gives the block decomposition; inside a block, elements with
composite minimal polynomial or a nilpotent part yield proper
idempotents; a corner known to be simple skips the center), then lift
everything through the radical with the integer-coefficient iteration
e -> 3e^2 - 2e^3.  Each primitive idempotent is certified once, on the
field leaf where its split stopped (see primitive_orthogonal_idempotents).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .ffield import FiniteField
from .linalg import (
    SpanSolver,
    charpoly_batched,
    inverse,
    is_invertible,
    kernel_basis,
    min_poly_of_action,
    rank,
    rref,
    solve,
)
from .poly import Poly, poly_factor, poly_xgcd


class CertificationError(RuntimeError):
    """An internal consistency certificate failed; this signals a bug."""


# ---------------------------------------------------------------------------


class Algebra:
    """Associative unital algebra over a finite field by structure constants."""

    def __init__(self, field: FiniteField, struct, unit, labels=None, rep=None,
                 generators=None, validate: bool = True, rep_blocks=None):
        struct = np.asarray(struct, dtype=np.int64)
        unit = np.asarray(unit, dtype=np.int64)
        d = struct.shape[0]
        if struct.shape != (d, d, d):
            raise ValueError("structure constants must have shape (d, d, d)")
        if unit.shape != (d,):
            raise ValueError("unit vector has wrong length")
        self.field = field
        self.dim = d
        self.struct = struct
        self.unit = unit
        self.labels = tuple(labels) if labels is not None else None
        self.rep = None if rep is None else np.asarray(rep, dtype=np.int64)
        # sizes of the diagonal blocks of rep, which is zero off them; None
        # for one block.  The caller vouches for the zeros: end_algebra
        # certifies them for its unit pieces
        self.rep_blocks = None if rep_blocks is None else tuple(int(s) for s in rep_blocks)
        if self.rep_blocks is not None and (
                self.rep is None or sum(self.rep_blocks) != self.rep.shape[1]):
            raise ValueError("representation blocks do not sum to its dimension")
        # the CertifiedRadical that radical keeps once it has certified A
        self._radical = None
        # (g, d) coordinate rows that generate A together with the unit; the
        # basis unless a builder knows fewer
        if generators is None:
            self.generators = field.eye(d)
        else:
            self.generators = np.asarray(generators, dtype=np.int64).reshape(-1, d)
            self._certify_generators()
        if validate:
            self.validate()

    def _certify_generators(self):
        """The right-nested generator words g_1 (g_2 (... (g_k 1))) span A.

        Frontier closure from span{1}: each new row is multiplied on the
        left by every generator once and the products are reduced modulo
        the span so far.  Uses no associativity, so it runs before
        validate()."""
        F, d = self.field, self.dim
        span = SpanSolver(F, self.unit[None, :])
        frontier = span.basis
        while len(frontier) and span.dim < d:
            prods = self.span_products(self.generators, frontier).reshape(-1, d)
            frontier = SpanSolver(F, span.residual(prods)).basis
            span = SpanSolver(F, np.concatenate([span.basis, frontier]))
        if span.dim < d:
            raise ValueError("generators do not generate the algebra")

    def first_defect(self, check):
        """Where an identity that is linear in an algebra element fails.

        check(x) returns the two sides (lhs, rhs) for one coordinate row x.
        They are compared on each generator; lhs - rhs is linear in x, so
        a generator where they differ has a basis element in its support
        where they differ too.  Returns None, or (i, *index): that basis
        element i and the first index at which its two sides differ.
        Callers say why the generators suffice for their identity."""
        eye = self.field.eye(self.dim)
        for g in self.generators:
            lhs, rhs = check(g)
            if not np.array_equal(lhs, rhs):
                for i in np.flatnonzero(g):
                    lhs, rhs = check(eye[i])
                    if not np.array_equal(lhs, rhs):
                        where = np.argwhere(lhs != rhs)[0]
                        return (int(i),) + tuple(int(t) for t in where)
                raise RuntimeError("check is not linear in the algebra element")
        return None

    # -- multiplication ----------------------------------------------------

    def mul_vec(self, x, y) -> np.ndarray:
        """Product of two coordinate vectors."""
        F = self.field
        return F.combine(y, F.combine(x, self.struct))

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> x*y on coordinate columns."""
        return self.field.combine(x, self.struct).T

    def right_mult_matrix(self, y) -> np.ndarray:
        return self.field.combine(y, self.struct.transpose(1, 0, 2)).T

    def span_products(self, X, Y) -> np.ndarray:
        """All products x*y for rows x of X and y of Y; shape (r, s, d)."""
        F = self.field
        return F.vmatmul(np.atleast_2d(Y), F.combine(np.atleast_2d(X), self.struct))

    def power(self, x, e: int) -> np.ndarray:
        """x^e by square-and-multiply, in the order acc * base.  x may be a
        stack of rows (..., d): every row is raised at once, one batched
        product per step."""
        F = self.field
        base = np.asarray(x, dtype=np.int64)
        acc = np.broadcast_to(self.unit, base.shape)

        def mul(u, v):  # row by row, u_i * v_i
            return F.vmatmul(v[..., None, :], F.combine(u, self.struct))[..., 0, :]

        while e:
            if e & 1:
                acc = mul(acc, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return np.array(acc)

    def element_min_poly(self, x) -> Poly:
        x = np.asarray(x, dtype=np.int64)
        return min_poly_of_action(
            self.field, lambda v: self.mul_vec(x, v), self.dim, self.unit
        )

    def eval_poly(self, f: Poly, x) -> np.ndarray:
        """f(x) by Horner's rule in the algebra."""
        acc = self.field.zeros(self.dim)
        for c in reversed(f.codes):
            acc = self.mul_vec(acc, x)
            if c:
                acc = self.field.vadd(acc, self.field.vmul(c, self.unit))
        return acc

    # -- representations ---------------------------------------------------

    def regular_rep(self) -> np.ndarray:
        """left_mult_matrix(b_i) for every basis element, as one (d, d, d) array."""
        return self.struct.transpose(0, 2, 1)

    def faithful_rep(self) -> np.ndarray:
        return self.rep if self.rep is not None else self.regular_rep()

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.struct, self.struct.transpose(1, 0, 2)))

    @cached_property
    def unit_pieces(self) -> tuple:
        """The basis elements in the unit's support, as indices, when the
        unit is their sum and struct shows them pairwise orthogonal
        idempotents (b_v b_w = b_v if v = w, else 0); () otherwise, and
        when the unit is one basis element.  Path algebras give their
        vertices, matrix algebras the e_ii.

        Every module M is then the direct sum of the images of the actions
        of the b_v, and every module map carries the image of b_v into the
        image of b_v (Assem-Simson-Skowronski, *Elements of the
        Representation Theory of Associative Algebras 1*, sec. III.1)."""
        support = np.flatnonzero(self.unit)
        s = len(support)
        if s < 2 or np.any(self.unit[support] != 1):
            return ()
        want = np.zeros((s, s, self.dim), dtype=np.int64)
        want[np.arange(s), np.arange(s), support] = 1
        if not np.array_equal(self.struct[np.ix_(support, support)], want):
            return ()
        return tuple(int(v) for v in support)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and np.array_equal(self.struct, other.struct)
            and np.array_equal(self.unit, other.unit)
        )

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.dim,
                     self.struct.tobytes(), self.unit.tobytes()))

    # -- validation ---------------------------------------------------------

    def validate(self):
        """L_1 = R_1 = I, and (g b_j) b_k = g (b_j b_k) for every generator g.

        This proves associativity.  Let T be the set of x with
        (x y) z = x (y z) for all y, z: a subspace that holds 1 (L_1 = I)
        and the generators.  For x in T and a generator g,
        ((g x) y) z = (g (x y)) z = g ((x y) z) = g (x (y z)) = (g x)(y z),
        using g in T three times and x in T once, so T is closed under
        left multiplication by the generators.  The right-nested generator
        words therefore lie in T by induction on their length, and they
        span A (certified at construction), so T = A."""
        F = self.field
        c = self.struct
        d = self.dim
        if d == 0:
            return
        L1 = self.left_mult_matrix(self.unit)
        R1 = self.right_mult_matrix(self.unit)
        if not np.array_equal(L1, F.eye(d)) or not np.array_equal(R1, F.eye(d)):
            raise ValueError("unit does not act as identity")
        pairs = c.reshape(d * d, d)

        def check(x):
            xb = F.combine(x, c)  # row j: x b_j
            return F.combine(xb, c), F.vmatmul(pairs, xb).reshape(d, d, d)

        bad = self.first_defect(check)
        if bad is not None:
            i, j, k = bad[:3]
            raise ValueError(f"associativity fails on basis triple ({i}, {j}, {k})")

    def __repr__(self):
        return f"Algebra(dim={self.dim} over {self.field!r})"


class AlgebraAut:
    """Multiplicative invertible linear map, stored as its coordinate matrix."""

    def __init__(self, algebra: Algebra, matrix, validate: bool = True):
        self.algebra = algebra
        self.matrix = np.asarray(matrix, dtype=np.int64)
        if self.matrix.shape != (algebra.dim, algebra.dim):
            raise ValueError("automorphism matrix has wrong shape")
        self._inv = None
        if validate:
            self.validate()

    def validate(self):
        """U is invertible, U(1) = 1 and U(g b_j) = U(g) U(b_j) for every
        generator g.  The x with U(x y) = U(x) U(y) for all y form a
        subspace holding 1 and the generators, closed under left
        multiplication by a generator g: by associativity,
        U((g x) y) = U(g (x y)) = U(g) U(x) U(y) = U(g x) U(y).
        So it holds every right-nested generator word, hence all of A."""
        A, F, U = self.algebra, self.algebra.field, self.matrix
        if not is_invertible(F, U):
            raise ValueError("automorphism matrix is singular")
        if not np.array_equal(self.apply(A.unit), A.unit):
            raise ValueError("automorphism does not fix the unit")
        c = A.struct

        def check(x):
            # row j: U(x b_j) and U(x) U(b_j)
            return (F.vmatmul(F.combine(x, c), U.T),
                    F.vmatmul(U.T, F.combine(self.apply(x), c)))

        bad = A.first_defect(check)
        if bad is not None:
            raise ValueError(f"automorphism is not multiplicative on pair ({bad[0]}, {bad[1]})")

    def apply(self, x) -> np.ndarray:
        return self.algebra.field.vmatmul(self.matrix, np.asarray(x)[:, None])[:, 0]

    def inverse_matrix(self) -> np.ndarray:
        if self._inv is None:
            self._inv = inverse(self.algebra.field, self.matrix)
        return self._inv

    def inverse(self) -> "AlgebraAut":
        return AlgebraAut(self.algebra, self.inverse_matrix(), validate=False)

    def compose(self, other: "AlgebraAut") -> "AlgebraAut":
        """self after other."""
        return AlgebraAut(
            self.algebra,
            self.algebra.field.vmatmul(self.matrix, other.matrix),
            validate=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraAut)
            and self.algebra is other.algebra
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self):
        return f"AlgebraAut(dim={self.algebra.dim})"


@dataclass
class IdempotentSet:
    """A list of idempotent coordinate vectors, claimed pairwise orthogonal
    and summing to the unit: a complete set.  verify checks the claim.

    primitive_orthogonal_idempotents also groups its idempotents by
    isomorphism of the right ideals e A.  labels[i] is the class of e_i,
    classes numbered in order of first appearance, and isos[i] is a
    certified pair (alpha, beta) with alpha in r A e_i, beta in e_i A r,
    beta alpha = e_i and alpha beta = r, for r the first idempotent of the
    class (alpha = beta = r for r itself).  Left multiplication by alpha is
    then an isomorphism e_i A -> r A with inverse beta.  A set built by
    hand has neither."""

    algebra: Algebra
    idempotents: list
    labels: list = field(default_factory=list)
    isos: list = field(default_factory=list)

    def __len__(self):
        return len(self.idempotents)

    def __iter__(self):
        return iter(self.idempotents)

    def verify(self):
        """Each e is idempotent, e_i e_j = 0 for i != j and the e sum to
        the unit.  Every product e_i e_j comes from one span_products; a
        failure names the first pair in row order."""
        A, F = self.algebra, self.algebra.field
        k = len(self.idempotents)
        es = np.reshape(np.asarray(self.idempotents, dtype=np.int64), (k, A.dim))
        prods = A.span_products(es, es)  # [i, j] = e_i e_j
        if not np.array_equal(prods[np.arange(k), np.arange(k)], es):
            raise CertificationError("element is not idempotent")
        bad = np.argwhere(prods.any(axis=-1) & ~np.eye(k, dtype=bool))
        if bad.size:
            i, j = bad[0]
            raise CertificationError(f"idempotents {i}, {j} not orthogonal")
        if not np.array_equal(F.vsum(es, axis=0), A.unit):
            raise CertificationError("idempotents do not sum to the unit")
        return True


# ---------------------------------------------------------------------------
# group table utilities


def validate_group_table(table) -> int:
    """Check the group axioms; returns the identity's index."""
    table = np.asarray(table, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
        raise ValueError("group table must be square and nonempty")
    k = table.shape[0]
    if table.min() < 0 or table.max() >= k:
        raise ValueError("group table entries out of range")
    identity = None
    for e in range(k):
        if all(table[e, i] == i and table[i, e] == i for i in range(k)):
            identity = e
            break
    if identity is None:
        raise ValueError("group table has no identity")
    comp1 = table[table, :]  # comp1[i,j,l] = (i j) l
    comp2 = table[:, table]  # comp2[i,j,l] = i (j l)
    if not np.array_equal(comp1, comp2):
        raise ValueError("group table is not associative")
    for i in range(k):
        if not np.any(table[i] == identity):
            raise ValueError(f"element {i} has no inverse")
    return identity


def _group_generators(table, identity: int) -> list:
    """Group elements taken greedily in element order, each one outside the
    subgroup generated by those taken before it."""
    table = np.asarray(table, dtype=np.int64)
    gens, sub = [], {identity}
    for g in range(table.shape[0]):
        if g in sub:
            continue
        gens.append(g)
        # in a finite group, closing {1} under right multiplication by the
        # generators gives the subgroup they generate
        sub, frontier = {identity}, [identity]
        while frontier:
            frontier = [int(y) for y in dict.fromkeys(table[frontier][:, gens].ravel())
                        if y not in sub]
            sub.update(frontier)
    return gens


# ---------------------------------------------------------------------------
# builders


def _struct_zeros(d: int) -> np.ndarray:
    """Zero structure constants of a d-dimensional algebra, a (d, d, d)
    int64 array; a ValueError naming d when d > 256.  Building an algebra
    holds about seven arrays of d^3 8-byte entries at its peak: these
    constants, the group axioms' two compositions, and validate's float64
    products, d^2 rows of d per generator (peak RSS at d = 256: Mat16 985
    MB, the group algebra of C16 x C16 967 MB).  d <= 256, where one such
    array is 128 MiB, keeps that peak within 1 GiB.  The largest d that the
    tests, the selftest and the benchmark build is 72."""
    if d > 256:
        raise ValueError(f"algebra of dimension {d} is larger than supported (256): "
                         f"building it would hold about {7 * d ** 3 / 2 ** 27:.1f} GiB")
    return np.zeros((d, d, d), dtype=np.int64)


def make_group_algebra(table, field: FiniteField) -> Algebra:
    """Group algebra of a finite group given by its multiplication table."""
    table = np.asarray(table, dtype=np.int64)
    # sized first: the group axioms' check builds (k, k, k) arrays as well
    struct = _struct_zeros(table.shape[0] if table.ndim else 0)
    identity = validate_group_table(table)
    k = table.shape[0]
    for i in range(k):
        for j in range(k):
            struct[i, j, table[i, j]] = 1
    unit = np.zeros(k, dtype=np.int64)
    unit[identity] = 1
    labels = tuple(f"g{i}" for i in range(k))
    gens = field.eye(k)[_group_generators(table, identity)]
    return Algebra(field, struct, unit, labels=labels, generators=gens)


def make_matrix_algebra(n: int, field: FiniteField) -> Algebra:
    """Full matrix algebra Mat_n on the matrix-unit basis e_(u,v),
    generated by the e_(i,i+1) and e_(i+1,i)."""
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    d = n * n
    struct = _struct_zeros(d)
    for u in range(n):
        for v in range(n):
            for w in range(n):
                for z in range(n):
                    if v == w:
                        struct[u * n + v, w * n + z, u * n + z] = 1
    unit = np.zeros(d, dtype=np.int64)
    for u in range(n):
        unit[u * n + u] = 1
    labels = tuple(f"e{u}{v}" for u in range(n) for v in range(n))
    gens = field.eye(d)[[i * n + i + 1 for i in range(n - 1)]
                        + [(i + 1) * n + i for i in range(n - 1)]]
    return Algebra(field, struct, unit, labels=labels, generators=gens)


class _PathAutomaton:
    """Tracks the longest suffix of the walked arrows that is a proper
    prefix of some relation; a repeated (vertex, suffix) state along a
    relation-free walk pumps to an infinite path basis."""

    def __init__(self, relations):
        self.relations = [tuple(r) for r in relations]
        self.prefixes = set()
        for r in self.relations:
            for ln in range(len(r)):
                self.prefixes.add(r[:ln])

    def step(self, suffix, arrow):
        word = suffix + (arrow,)
        # the relation check looks at every suffix of the walked word, but
        # by induction only suffixes of (tracked suffix + arrow) are new
        for start in range(len(word)):
            if word[start:] in self.relations:
                return None  # path dies
        while word and word not in self.prefixes:
            word = word[1:]
        return word


def make_path_algebra(field: FiniteField, n_vertices: int, arrows, relations=()) -> Algebra:
    """Path algebra of a quiver with monomial relations.

    arrows: list of (source, target) vertex pairs; relations: lists of
    arrow indices forming composable paths (left-to-right in diagram
    order).  Raises when the relation-free path basis is infinite.  The
    vertex idempotents and the arrows generate it.
    """
    arrows = [tuple(a) for a in arrows]
    for s, t in arrows:
        if not (0 <= s < n_vertices and 0 <= t < n_vertices):
            raise ValueError("arrow endpoint out of range")
    relations = [tuple(r) for r in relations]
    for r in relations:
        if not r:
            raise ValueError("empty relation")
        for a, b in zip(r, r[1:]):
            if arrows[a][1] != arrows[b][0]:
                raise ValueError("relation is not a composable path")
    auto = _PathAutomaton(relations)

    # finiteness: the relation-free walks are the walks of a finite
    # automaton on states (vertex, tracked suffix); the basis is finite
    # iff the reachable part of that automaton is acyclic, and then its
    # size is the number of walks from the vertices' states, counted
    # before a path is listed.
    states = [(v, ()) for v in range(n_vertices)]
    edges = {}
    queue = list(states)
    seen = set(states)
    while queue:
        (v, suf) = queue.pop()
        outs = []
        for ai, (s, t) in enumerate(arrows):
            if s != v:
                continue
            nsuf = auto.step(suf, ai)
            if nsuf is None:
                continue
            nstate = (t, nsuf)
            outs.append((ai, nstate))
            if nstate not in seen:
                seen.add(nstate)
                queue.append(nstate)
        edges[(v, suf)] = outs
    walks = {}  # state -> its walks, the empty one included; None while open

    def count_walks(state):
        walks[state] = None  # meeting an open state again closes a cycle
        total = 1
        for _, nxt in edges[state]:
            if nxt in walks and walks[nxt] is None:
                raise ValueError("infinite path basis")
            total += walks[nxt] if nxt in walks else count_walks(nxt)
        walks[state] = total
        return total

    for st in seen:
        if st not in walks:
            count_walks(st)
    struct = _struct_zeros(sum(walks[s] for s in states))

    paths = []  # (start_vertex, arrow_tuple, end_vertex)
    for v in range(n_vertices):
        paths.append((v, (), v))
    frontier = [(v, (), v, ()) for v in range(n_vertices)]
    while frontier:
        new_frontier = []
        for (start, word, end, suffix) in frontier:
            for ai, (s, t) in enumerate(arrows):
                if s != end:
                    continue
                nsuf = auto.step(suffix, ai)
                if nsuf is None:
                    continue
                paths.append((start, word + (ai,), t))
                new_frontier.append((start, word + (ai,), t, nsuf))
        frontier = new_frontier

    d = len(paths)
    index = {(p[0], p[1]): i for i, p in enumerate(paths)}
    # product p * q means "q first, then p": defined when start(p) == end(q),
    # and nonzero iff the walk q then p is relation-free, a basis walk
    for i, (ps, pw, _) in enumerate(paths):
        for j, (qs, qw, qe) in enumerate(paths):
            k = index.get((qs, qw + pw)) if ps == qe else None
            if k is not None:
                struct[i, j, k] = 1
    unit = np.zeros(d, dtype=np.int64)
    for v in range(n_vertices):
        unit[index[(v, ())]] = 1
    labels = tuple(
        f"e{p[0]}" if not p[1] else "*".join(f"a{a}" for a in p[1]) for p in paths
    )
    gens = field.eye(d)[[i for i, p in enumerate(paths) if len(p[1]) <= 1]]
    return Algebra(field, struct, unit, labels=labels, generators=gens)


# ---------------------------------------------------------------------------
# radical (Cohen-Ivanyos-Wales chain) and certification

# product cells that one block of a streamed product may hold (_row_blocks):
# it bounds the memory of the radical chain's charpoly stage and of the
# certificate's ideal check.  One radical of End(regular Mat6/F3), whose
# charpoly stage multiplies 36 x 36 matrices for 36 x 36 pairs (2-core
# x86_64, one BLAS thread): unblocked 42-45 ms at a 39.2 MB tracemalloc
# peak; 2^19 cells 38-39 ms at 12.8 MB; 2^18 (8 blocks of 5 rows) 38-41 ms
# at 7.1 MB; 2^17 46 ms at 3.5 MB; 2^16 69 ms at 2.2 MB
_BLOCK_CELLS = 2 ** 18


def _row_blocks(rows: int, row_cells: int):
    """Slices covering range(rows) in order, each of at most _BLOCK_CELLS
    cells when a row costs row_cells, and of at least one row."""
    k = max(1, _BLOCK_CELLS // row_cells)
    return [slice(a, min(a + k, rows)) for a in range(0, rows, k)]


def _diagonal_blocks(stack, sizes) -> list:
    """The diagonal blocks stack[:, a:b, a:b] of a (d, n, n) stack, of the
    given sizes in order."""
    cuts = np.cumsum((0,) + tuple(sizes))
    return [stack[:, a:b, a:b] for a, b in zip(cuts, cuts[1:])]


def _blocks_charpoly(F, stacks, T: int) -> np.ndarray:
    """The first T coefficients of charpoly(X) for the block-diagonal X
    whose diagonal blocks are stacks[v][i], shape (N, T).

    charpoly(X) is the product of the blocks' charpolys, and coefficient
    t < T of a product of monic polynomials, in descending order, reads
    coefficients <= t of each factor only.  So each factor needs only its
    first T coefficients (charpoly_batched truncates exactly), and the
    product is truncated at T.  Blocks of one size go in one call."""
    if len(stacks) == 1:
        return charpoly_batched(F, stacks[0], T)
    N = len(stacks[0])
    factors = []
    for size in sorted({X.shape[1] for X in stacks}):
        same = [X for X in stacks if X.shape[1] == size]
        polys = charpoly_batched(F, np.concatenate(same), T)
        factors += [polys[a:a + N] for a in range(0, len(polys), N)]
    out = F.zeros((N, T))
    out[:, :factors[0].shape[1]] = factors[0]
    for f in factors[1:]:
        # out * f, truncated: coefficient t gains f[s] out[t - s] for s >= 1
        acc = out.copy()
        for s in range(1, f.shape[1]):
            acc[:, s:] = F.vadd(acc[:, s:], F.vmul(f[:, s, None], out[:, :T - s]))
        out = acc
    return out


@dataclass(frozen=True)
class CertifiedRadical:
    """The certified radical J of an algebra A with its top A/J: a
    SpanSolver of J, whose basis is J's reduced echelon rows as radical
    returns them, and the quotient algebra A/J with project and lift as
    quotient_algebra returns them.  _certify_radical builds it and
    radical keeps it on A; readers take it through certified_radical.

    A record kept on A never names A: for J = 0, where the top is A itself,
    top is None, and project and lift are the identity.  A record naming
    its own algebra would be a reference cycle, which frees nothing until
    the cyclic garbage collector runs."""

    solver: SpanSolver
    top: Optional[Algebra]
    project: Callable
    lift: Callable


def _same(x):
    return x


def _semisimple_record(F: FiniteField, d: int) -> CertifiedRadical:
    """The record of a d-dimensional algebra with zero radical."""
    return CertifiedRadical(SpanSolver(F, np.zeros((0, d), dtype=np.int64)),
                            None, _same, _same)


def certified_radical(A: Algebra) -> CertifiedRadical:
    """A's certified radical and top, from the record radical keeps on A;
    the first call certifies it (radical).  The record handed out has
    top = A when J = 0, for the reader's use: it is not kept."""
    if A._radical is None:
        radical(A)
    rec = A._radical
    return rec if rec.top is not None else replace(rec, top=A)


def radical(A: Algebra, certify: bool = True) -> np.ndarray:
    """Echelonized basis (rows) of the Jacobson radical.

    Stage j of the chain solves sum_a lam_a^(p^j) C[a, b] = 0 for every b,
    with C[a, b] = c_{p^j}(rep(x_a) rep(x_b)) over the current basis x.
    C is symmetric, because charpoly(XY) = charpoly(YX) for square X and Y
    (det(t - XY) = det(t - YX), Sylvester's determinant identity), so the
    charpoly stage computes one characteristic polynomial per unordered
    pair a <= b, r(r+1)/2 of them, and fills both triangles.  It streams
    the pairs in blocks of rows a (_row_blocks): each block multiplies its
    rows by every b from its first row on, so its product holds at most
    max(_BLOCK_CELLS, r c) matrix entries, c those of one rep(x) on its
    blocks, not r^2 c, and C is the same for every block size.  The trace
    stage (p^j = 1) is one matrix product.

    Both stages run on the diagonal blocks of the representation
    (Algebra.rep_blocks; one block unless End(M) was built over the unit
    pieces).  rep(x) is zero off them, so products are formed block by
    block, tr(XY) is the sum of the blocks' traces and charpoly(XY) the
    product of theirs (_blocks_charpoly).

    Certified in-op: ideal closure, nilpotency, and a zero radical of the
    quotient; any failure raises CertificationError.  The certificate
    builds the top A/J, and radical keeps J, its solver and the top on A
    as one CertifiedRadical.  Once A has been certified, radical returns
    the rows of that record's solver and runs nothing, with or without
    certify; without certify and a record, the chain runs and nothing is
    kept.
    """
    if A._radical is not None:
        return A._radical.solver.basis
    F = A.field
    d = A.dim
    if d == 0:  # nothing to certify: the zero algebra is its own top
        A._radical = _semisimple_record(F, 0)
        return A._radical.solver.basis
    rep = A.faithful_rep()
    nrep = rep.shape[1]
    blocks = [rep] if A.rep_blocks is None else _diagonal_blocks(rep, A.rep_blocks)
    cells = sum(blk.shape[1] ** 2 for blk in blocks)  # entries of one rep(x)
    basis = F.eye(d)
    j = 0
    pj = 1
    while pj <= nrep and len(basis) > 0:
        r = len(basis)
        reps = [F.combine(basis, blk) for blk in blocks]  # (r, n_v, n_v) each
        if pj == 1:
            # trace form stage: C[a, b] = tr(rep(x_a) rep(x_b))
            C = F.vmatmul(np.concatenate([X.reshape(r, -1) for X in reps], axis=1),
                          np.concatenate([X.transpose(0, 2, 1).reshape(r, -1)
                                          for X in reps], axis=1).T)
        else:
            # rows a of a block against columns b >= the block's first row:
            # a broadcast product expands each operand once per block, where
            # gathering the triangle's operands would expand r(r+1)/2 of them
            C = F.zeros((r, r))
            for blk in _row_blocks(r, r * cells):
                a, b = np.triu_indices(blk.stop - blk.start, m=r - blk.start)
                polys = _blocks_charpoly(
                    F, [F.vmatmul(X[blk, None], X[None, blk.start:])[a, b] for X in reps],
                    pj + 1)
                a, b = a + blk.start, b + blk.start
                C[a, b] = C[b, a] = polys[:, pj]
        W = kernel_basis(F, C.T)
        if len(W) == 0:
            basis = np.zeros((0, d), dtype=np.int64)
        else:
            lam = F.vfrobenius(np.array(W), -j)  # the p^j-th roots
            basis, _ = rref(F, F.vmatmul(lam, basis))
        j += 1
        pj *= F.p
    J = basis if len(basis) else np.zeros((0, d), dtype=np.int64)
    if not certify:
        return J
    A._radical = _certify_radical(A, J)
    return A._radical.solver.basis


def _certify_radical(A: Algebra, J) -> CertifiedRadical:
    """span(J) is a nilpotent two-sided ideal and A/J has zero radical;
    returns the record of J and the top A/J it built for the check.

    The ideal check multiplies J by the generators only: a subspace closed
    under multiplication by them on both sides is closed under every
    right-nested generator word, by associativity.  The products g x are
    formed for one block of generators g at a time and the x g for one
    block of rows x of J (_row_blocks, d^2 cells a row), each block checked
    against one solver for J.  For J = 0 there is nothing to check: the
    ideal and nilpotency checks are empty, and the quotient is A itself,
    where the chain that found J would only be rerun, so the claim that A
    is semisimple has no certificate beyond that chain.  Otherwise the
    chain runs on A/J and finds zero, and A/J gets the record that says
    so."""
    F = A.field
    d = A.dim
    if len(J) == 0:
        return _semisimple_record(F, d)
    gens = A.generators
    J_solver = SpanSolver(F, J)
    left = (A.span_products(gens[blk], J) for blk in _row_blocks(len(gens), d * d))
    right = (A.span_products(J[blk], gens) for blk in _row_blocks(len(J), d * d))
    for products in itertools.chain(left, right):
        if J_solver.residual(products.reshape(-1, d)).any():
            raise CertificationError("claimed radical is not an ideal")
    # nilpotency: successive power spans must strictly shrink to zero
    S = J
    for _ in range(d + 1):
        if len(S) == 0:
            break
        prods = A.span_products(S, J).reshape(-1, d)
        S_next, _ = rref(F, prods)
        if len(S_next) >= len(S):
            raise CertificationError("claimed radical is not nilpotent")
        S = S_next
    else:
        raise CertificationError("claimed radical is not nilpotent")
    Abar, project, lift = quotient_algebra(A, J_solver, rep=_graded_rep(A, J))
    if len(radical(Abar, certify=False)) != 0:
        raise CertificationError("quotient by claimed radical is not semisimple")
    Abar._radical = _semisimple_record(F, Abar.dim)
    return CertifiedRadical(J_solver, Abar, project, lift)


def _graded_rep(A: Algebra, J):
    """A faithful representation of A/J on the top layers of gr V, or None
    when the regular representation of A/J is no larger.

    V is A's faithful representation and L_i = J^i V / J^{i+1} V are the
    layers of its radical filtration.  The result gives, for each basis
    element of A, its block-diagonal action on the prefix L_0 + ... + L_k
    for the first k at which the image of A has rank dim A/J.

    Why this is exact.  J is already certified to be a nilpotent two-sided
    ideal, so each J^i V is an A-submodule, the filtration ends at 0, and J
    acts as zero on every layer (J J^i V = J^{i+1} V).  So J lies in the
    kernel of the action on a prefix W, and an image of rank dim A/J means
    the kernel is exactly J: A/J acts faithfully on W, and the radical
    chain run in W decides whether rad(A/J) = 0, which with J nilpotent
    proves rad A = J.  If even all of gr V has a smaller image, its kernel
    I is strictly larger than J.  Each a in I maps J^i V into J^{i+1} V,
    so a^N V lies in J^N V = 0: I is a nil ideal, it lies in rad A, and J
    is not the radical.

    The layers are walked only while the prefix is smaller than dim A/J;
    once it is not, None is returned and the chain runs in the regular
    representation of A/J.  For V = A the top layer A/JA is A/J with its
    regular action, so an algebra without a rep builds nothing."""
    if A.rep is None:
        return None
    F = A.field
    d = A.dim
    dbar = d - len(J)
    rep = A.rep
    n = rep.shape[1]
    rep_t = rep.transpose(0, 2, 1)
    rep_J_t = F.combine(J, rep).transpose(0, 2, 1)
    W = F.eye(n)  # rows: echelon basis of J^i V
    blocks = []
    size = squares = 0
    while len(W):
        # J^{i+1} V is spanned by the rep(j) w; rows here hold (rep(j) w)^T
        below = SpanSolver(F, F.vmatmul(W, rep_J_t).reshape(-1, n))
        layer = SpanSolver(F, below.residual(W))
        k = layer.dim
        size += k
        squares += k * k
        if size >= dbar:
            return None
        # column t of a block: the coordinates of rep(b) t modulo J^{i+1} V
        images = below.residual(F.vmatmul(layer.basis, rep_t).reshape(-1, n))
        blocks.append(layer.batch_coords(images).reshape(d, k, k).transpose(0, 2, 1))
        if squares >= dbar and rank(
                F, np.concatenate([b.reshape(d, -1) for b in blocks], axis=1)) == dbar:
            out = F.zeros((d, size, size))
            off = 0
            for b in blocks:
                k = b.shape[1]
                out[:, off: off + k, off: off + k] = b
                off += k
            return out
        W = below.basis
    raise CertificationError("quotient by claimed radical is not semisimple")


def quotient_algebra(A: Algebra, J, rep=None):
    """Quotient A/span(J).  Returns (Abar, project, lift) with
    project: d-coords -> dbar-coords and lift a linear section of it.

    J holds rows spanning the ideal, or is a SpanSolver of them.  The lifts
    of the quotient basis are the basis elements of A outside J's pivots.
    rep, if given, is a (d, n, n) stack for a representation that vanishes
    on span(J); Abar gets the matrices of its lifted basis as its faithful
    representation, and none without it."""
    F = A.field
    d = A.dim
    solver = J if isinstance(J, SpanSolver) else SpanSolver(F, J)
    free = sorted(set(range(d)) - set(solver.pivots))
    dbar = len(free)

    def project(x):
        return solver.reduce(x)[0][free]

    def lift(xbar):
        out = np.zeros(d, dtype=np.int64)
        out[free] = xbar
        return out

    # products of the basis vectors outside the pivots, reduced modulo J
    prods = A.struct[np.ix_(free, free)].reshape(-1, d)
    struct = solver.residual(prods)[:, free].reshape(dbar, dbar, dbar)
    Abar = Algebra(F, struct, project(A.unit), validate=False,
                   rep=None if rep is None else rep[free])
    return Abar, project, lift


def algebra_on_span(field: FiniteField, basis, products, unit, rep=None,
                    rep_blocks=None) -> Algebra:
    """The algebra on a span closed under a product: the one constructor
    of structure constants from a span.

    basis is a (k, w) stack of linearly independent flat elements, and the
    coordinates are taken against its rows.  Its reduced echelon form B'
    (one rref) certifies closure: a product lies in the span iff its
    residual against B' vanishes, and then its coordinates c against B'
    are its pivot entries.  basis = H B' with H = basis[:, pivots], so
    c H^-1 are its coordinates against basis; for a basis in reduced
    echelon form (corners, Karoubi corners) H = I and nothing is inverted.
    products yields the rows of products in order, singly or in blocks:
    row i is the (k, w) stack of the flat products b_i * b_j.  unit is a
    flat w-vector; rep and rep_blocks go to the Algebra.  Raises ValueError
    when the rows are dependent or a product or the unit leaves the
    span."""
    F = field
    unit = np.asarray(unit, dtype=np.int64).reshape(-1)
    basis = np.asarray(basis, dtype=np.int64).reshape(len(basis), unit.size)
    k, w = basis.shape
    solver = SpanSolver(F, basis)
    if solver.dim < k:
        raise ValueError("span basis is not linearly independent")
    struct = _struct_zeros(k)
    i = 0
    for rows in products:
        rows = np.reshape(rows, (-1, k, w))
        struct[i:i + len(rows)] = solver.batch_coords(rows.reshape(-1, w)).reshape(-1, k, k)
        i += len(rows)
    unit = solver.coords(unit)
    if not np.array_equal(solver.basis, basis):
        Hinv = inverse(F, basis[:, solver.pivots])
        struct, unit = F.vmatmul(struct, Hinv), F.vmatmul(unit, Hinv)
    return Algebra(F, struct, unit, rep=rep, rep_blocks=rep_blocks, validate=False)


def corner_algebra(A: Algebra, e):
    """Corner eAe with its product, unit e, and an embedding row matrix.

    It carries no representation: the corners whose radical is taken are
    small field leaves, and clifford_run's, whose algebras carry none."""
    F = A.field
    e = np.asarray(e, dtype=np.int64)
    # columns of Le @ Re are the products e * b_i * e
    basis, _ = rref(F, F.vmatmul(A.left_mult_matrix(e), A.right_mult_matrix(e)).T)
    return algebra_on_span(F, basis, A.span_products(basis, basis), e), basis


def center_basis(A: Algebra) -> np.ndarray:
    """Echelonized basis of the center: the x that commute with every
    generator (then with every word in them, which span A)."""
    F = A.field
    d = A.dim
    if d == 0:
        return np.zeros((0, 0), dtype=np.int64)
    # condition x*g - g*x = 0: column s*d + k of row a is the k-th
    # coordinate of b_a g_s - g_s b_a
    xg = F.combine(A.generators, A.struct.transpose(1, 0, 2))  # [s, a]: b_a g_s
    gx = F.combine(A.generators, A.struct)  # [s, a]: g_s b_a
    big = F.vsub(xg, gx).transpose(1, 0, 2).reshape(d, len(A.generators) * d)
    K = kernel_basis(F, big.T)
    return rref(F, np.array(K))[0] if K else np.zeros((0, d), dtype=np.int64)


def _frobenius_fixed_dim(A: Algebra, rows) -> tuple:
    """Fixed space of z -> z^q on the (commutative) span of rows.

    Returns (dimension, fixed vectors in ambient coordinates)."""
    F = A.field
    rows = np.atleast_2d(rows)
    r = len(rows)
    if r == 0:
        return 0, []
    solver = SpanSolver(F, rows)
    Phi = solver.batch_coords(A.power(rows, F.q)).T
    K = kernel_basis(F, F.vsub(Phi, F.eye(r)))
    fixed = F.combine(np.reshape(K, (len(K), r)), solver.basis)
    return len(K), fixed


def lift_idempotent(A: Algebra, J, ebar) -> np.ndarray:
    """Lift an idempotent-mod-J to a true idempotent via e -> 3e^2 - 2e^3.

    J holds rows spanning the ideal, or is a SpanSolver of them, which a
    caller lifting many idempotents builds once."""
    F = A.field
    e = np.asarray(ebar, dtype=np.int64)
    solver = J if isinstance(J, SpanSolver) else SpanSolver(F, J)
    defect = F.vsub(A.mul_vec(e, e), e)
    if defect.any() and not solver.contains(defect):
        raise ValueError("element is not idempotent modulo the ideal")
    for _ in range(64):
        e2 = A.mul_vec(e, e)
        if np.array_equal(e2, e):
            diff = F.vsub(e, np.asarray(ebar, dtype=np.int64))
            if diff.any() and not solver.contains(diff):
                raise CertificationError("lift drifted out of the coset")
            return e
        e3 = A.mul_vec(e2, e)
        e = F.vsubmul(F.vmul(3 % F.p, e2), 2 % F.p, e3)
    raise CertificationError("idempotent lifting did not converge")


def _split_candidates(B: Algebra):
    """Deterministic enumeration of elements to try for block splitting."""
    F = B.field
    d = B.dim
    eye = F.eye(d)
    for i in range(d):
        yield eye[i]
    for i in range(d):
        for jx in range(d):
            if i != jx:
                yield B.mul_vec(eye[i], eye[jx])
    for i in range(d):
        for jx in range(i + 1, d):
            yield F.vadd(eye[i], eye[jx])
    for lam in range(2, F.q):
        for i in range(d):
            for jx in range(d):
                if i != jx:
                    yield F.vadd(eye[i], F.vmul(lam, eye[jx]))


def _crt_idempotents(B: Algebra, x, factors):
    """Complete orthogonal idempotents from coprime factor components.

    With m = prod g^a over the factors (g, a) and h = m / g^a, the
    idempotent of g is (u h mod m)(x) for u h = 1 mod g^a.  Every such
    polynomial has degree < deg m, so each idempotent is one combine of
    its coefficients with the powers x^0, ..., x^(deg m - 1), built once."""
    F = B.field
    m = Poly.one(F)
    parts = []
    for g, a in factors:
        ga = Poly.one(F)
        for _ in range(a):
            ga = ga * g
        parts.append(ga)
        m = m * ga
    coeffs = F.zeros((len(parts), m.degree))
    for row, ga in zip(coeffs, parts):
        h = m // ga
        gcd, u, _ = poly_xgcd(h, ga)
        if gcd.codes != (1,):
            raise CertificationError("primary factors of the minimal polynomial are not coprime")
        codes = ((u * h) % m).codes
        row[:len(codes)] = codes
    powers = [B.unit]
    for _ in range(m.degree - 1):
        powers.append(B.mul_vec(powers[-1], x))
    return F.combine(coeffs, np.stack(powers))


def _nilpotent_split(B: Algebra, nil):
    """Idempotent from the left ideal generated by a nonzero nilpotent
    (valid in a semisimple algebra: every left ideal has a right identity)."""
    F = B.field
    L, _ = rref(F, B.span_products(F.eye(B.dim), nil[None, :])[:, 0, :])
    if len(L) == 0:
        return None
    # solve for e in L with x e = x for every basis x of L: block x of the
    # system has the columns x * l_s
    k, d = L.shape
    c = solve(F, B.span_products(L, L).transpose(0, 2, 1).reshape(k * d, k), L.reshape(-1))
    if c is None:
        return None
    e = F.vmatmul(np.asarray(c)[None, :], L)[0]
    if not np.array_equal(B.mul_vec(e, e), e) or not e.any():
        return None
    if np.array_equal(e, B.unit):
        return None
    return e


def _corner_poi(B: Algebra, idempotents, depth: int, simple: bool):
    """Primitive idempotents of B refining orthogonal idempotents, with
    their leaves: split each nonzero corner eBe and map its idempotents back
    into B.  A leaf f(eBe)f of the corner is fBf, because f = efe.  simple
    says the corners are known to be simple, so they skip the central
    split."""
    if depth >= 64:
        raise CertificationError("idempotent splitting recursion too deep")
    F = B.field
    split = _simple_poi if simple else _semisimple_poi
    out = []
    for ec in idempotents:
        if ec.any():
            Bc, emb = corner_algebra(B, ec)
            out.extend((F.vmatmul(f[None, :], emb)[0], leaf)
                       for f, leaf in split(Bc, depth + 1))
    return out


def _semisimple_poi(B: Algebra, depth: int = 0):
    """Complete orthogonal primitive idempotents of a semisimple algebra.

    Returns (e, leaf) pairs: leaf is the algebra eBe on which the split of
    e stopped, either 1-dimensional or commutative with a 1-dimensional
    Frobenius-fixed space.

    The fixed space of z -> z^q on the center Z(B) has one dimension per
    simple block (Berlekamp): each block's center is a field holding one
    copy of F_q.  A fixed v outside F_q 1 takes a value in F_q on each
    block, and the CRT idempotents of its distinct values are central.
    When its minimal polynomial has fixed_dim distinct roots, each value
    marks one block, so each corner is simple and goes straight to
    _simple_poi; otherwise a corner may hold several blocks, and it
    recomputes its own center here."""
    F = B.field
    if B.dim == 0:
        return []
    if B.dim > 1:
        fixed_dim, fixed = _frobenius_fixed_dim(B, center_basis(B))
        if fixed_dim > 1:
            unit_solver = SpanSolver(F, B.unit[None, :])
            v = next(w for w in fixed if not unit_solver.contains(w))
            factors = poly_factor(B.element_min_poly(v))
            if len(factors) < 2 or any(g.degree != 1 or a != 1 for g, a in factors):
                raise CertificationError(
                    "fixed central element does not split into distinct linear factors")
            return _corner_poi(B, _crt_idempotents(B, v, factors), depth,
                               simple=len(factors) == fixed_dim)
    return _simple_poi(B, depth)


def _simple_poi(B: Algebra, depth: int):
    """The split of a simple algebra B, as _semisimple_poi returns it.

    A commutative simple algebra is a field, a leaf.  Otherwise an element
    with composite minimal polynomial or a nilpotent part splits B into
    corners eBe, and a corner of a simple algebra is simple: its center is
    eZ(B), a field.  So the corners recurse here, with no center to
    compute."""
    F = B.field
    if B.is_commutative():
        return [(B.unit.copy(), B)]
    for x in _split_candidates(B):
        if not x.any():
            continue
        mp = B.element_min_poly(x)
        factors = poly_factor(mp)
        if len(factors) >= 2:
            return _corner_poi(B, _crt_idempotents(B, x, factors), depth, simple=True)
        g, a = factors[0]
        if a >= 2:
            nil = B.eval_poly(g, x)
            if nil.any():
                e = _nilpotent_split(B, nil)
                if e is not None:
                    return _corner_poi(B, (e, F.vsub(B.unit, e)), depth, simple=True)
    raise CertificationError("no splitting element found in semisimple block")


def primitive_orthogonal_idempotents(A: Algebra) -> IdempotentSet:
    """Complete orthogonal set of primitive idempotents, certified.

    Refinement order: split the semisimple quotient (central Berlekamp
    split, then matrix-block splits), then lift through the radical one
    idempotent at a time inside shrinking corners; the last idempotent is
    1 minus the others.

    The split runs on the top Abar = A/J that the radical's certificate
    built (certified_radical), A itself when J = 0, and the lifts go
    through that record's solver for J.

    Why each e is primitive (Lam, A First Course in Noncommutative Rings,
    section 21; Curtis-Reiner, Methods of Representation Theory I, section
    6).  J = rad A is certified by `radical`, so Abar = A/J is semisimple.
    The returned e are checked idempotent, orthogonal and complete, and
    e - lift(ebar) is checked to lie in J for every e, the last one
    included: e maps to ebar in Abar.
    - eAe -> ebar Abar ebar, e a e -> ebar abar ebar, is onto with kernel
      eAe meet J = eJe.  eJe is a nilpotent ideal of eAe, and the quotient
      is a corner of a semisimple algebra, hence semisimple, so
      rad(eAe) = eJe and eAe / rad(eAe) = ebar Abar ebar.
    - `_semisimple_poi` reaches ebar through nested corners: with
      f = efe in the corner eBe, f(eBe)f = fBf, so the leaf it returns with
      ebar is ebar Abar ebar (a corner of a corner is a corner).
    - The leaf is semisimple, so `is_local(leaf)` says it is a field.  Then
      eAe / rad(eAe) is a field: eAe is local and e is primitive.
    The leaves have dimension 1 (decided at once) or are small commutative
    fields, so this one check replaces a locality test on every eAe, and on
    End(S) = eEe for each summand S that `rep.decompose` builds from e.  A
    leaf that is Abar itself (A local) reads the record the certificate
    gave Abar, and runs no second chain.

    This is also the one place that decides which of the e are isomorphic:
    e A and f A are isomorphic iff ebar and fbar lie in one simple block of
    Abar, and `_iso_classes` decides it from whether r A e lies in J, with a
    checked isomorphism for every "yes" (labels and isos; see
    IdempotentSet).  `rep.decompose` and `clifford.clifford_run` group their
    summands by these labels.
    """
    F = A.field
    d = A.dim
    if d == 0:
        return IdempotentSet(A, [])
    rad = certified_radical(A)
    J_solver, lift = rad.solver, rad.lift
    leaves = _semisimple_poi(rad.top)
    es = []
    done = F.zeros(d)
    for t, (ebar, _) in enumerate(leaves):
        if t == len(leaves) - 1:
            e = F.vsub(A.unit, done)
            if not np.array_equal(A.mul_vec(e, e), e):
                raise CertificationError("final complement is not idempotent")
        else:
            a = lift(ebar)
            c = F.vsub(A.unit, done)
            b = A.mul_vec(c, A.mul_vec(a, c))
            e = lift_idempotent(A, J_solver, b)
        es.append(e)
        done = F.vadd(done, e)
    result = IdempotentSet(A, es)
    result.verify()
    diffs = np.stack([F.vsub(e, lift(ebar)) for e, (ebar, _) in zip(es, leaves)])
    if J_solver.residual(diffs).any():
        raise CertificationError("idempotent lies outside the coset of its leaf")
    for _, leaf in leaves:
        if not is_local(leaf):
            raise CertificationError("leaf of a claimed primitive idempotent is not a field")
    result.labels, result.isos = _iso_classes(A, es, J_solver)
    return result


def _iso_classes(A: Algebra, es, J_solver):
    """Isomorphism classes of the right ideals e A of primitive idempotents,
    with witnesses: (labels, isos) as IdempotentSet documents them.  J_solver
    is the solver of A's certified radical (certified_radical).

    Each e is tested against the first idempotent r of every class found so
    far, all in one product.  The r b e over A's basis b span
    r A e = Hom_A(e A, r A).
    - "No": r A e lies in J = rad A.  Then rbar Abar ebar = 0, so
      Hom(ebar Abar, rbar Abar) = 0 and the tops ebar Abar, rbar Abar of
      e A, r A are not isomorphic: neither are e A and r A.
    - "Yes": some alpha in r A e lies outside J.  ebar Abar and rbar Abar
      are simple (ebar, rbar are primitive in the semisimple Abar), and
      left multiplication by alpha-bar maps ebar to alpha-bar != 0, so it is
      an isomorphism of the tops.  By Nakayama, alpha: e A -> r A is onto;
      it splits, as r A is projective, and e A is indecomposable, so alpha
      is an isomorphism.  Its inverse is beta = e x r for any x with
      x alpha = e (one solve; then beta alpha = e x alpha = e), and
      alpha beta = r is checked.
    So e A and r A are isomorphic iff ebar and rbar lie in one simple block
    of Abar (Lam, A First Course in Noncommutative Rings, sections 21-22;
    Curtis-Reiner, Methods of Representation Theory I, section 6).  A failed
    solve or check raises CertificationError naming the pair; by the
    argument above it signals a bug."""
    if len(es) < 2:  # a lone idempotent is its own class: nothing to test
        return list(range(len(es))), [(e, e) for e in es]
    F, d = A.field, A.dim
    rows = np.reshape(np.asarray(es, dtype=np.int64), (len(es), d))
    # e_i x = x @ left[i] and x e_i = x @ right[i] (rows e_i b_k and b_k e_i)
    left, right = F.combine(rows, A.struct), F.combine(rows, A.struct.transpose(1, 0, 2))
    reps, labels, isos = [], [], []  # reps: the index of each class's first e
    for i, e in enumerate(es):
        # row c d + k is r b_k e for r the first idempotent of class c: rows
        # c d, ..., c d + d - 1 span r A e, and every class is tested at once
        spans = F.vmatmul(left[reps], right[i]).reshape(-1, d)
        hits = np.flatnonzero(J_solver.residual(spans).any(axis=1))
        if not len(hits):
            labels.append(len(reps))
            reps.append(i)
            isos.append((e, e))
            continue
        c, j, alpha = hits[0] // d, reps[hits[0] // d], spans[hits[0]]
        x = solve(F, A.right_mult_matrix(alpha), e)  # x alpha = e, and r alpha = alpha
        beta = None if x is None else F.vmatmul(F.vmatmul(x, left[i]), right[j])
        if beta is None or not np.array_equal(A.mul_vec(alpha, beta), es[j]):
            raise CertificationError(
                f"class test of idempotents {j} and {i}: no beta in e A r inverts "
                "the alpha in r A e outside the radical")
        labels.append(int(c))
        isos.append((alpha, beta))
    return labels, isos


def is_local(A: Algebra) -> bool:
    """True iff A modulo its radical is a (finite) field.

    A/J is the top of A's certified radical (certified_radical): the one
    the certificate built, or A itself when J = 0, so an algebra whose
    radical is certified already is not certified again.  A 1-dimensional
    unital algebra is the field itself."""
    if A.dim <= 1:
        return A.dim == 1
    Abar = certified_radical(A).top
    if not Abar.is_commutative():
        return False
    fixed_dim, _ = _frobenius_fixed_dim(Abar, Abar.field.eye(Abar.dim))
    return fixed_dim == 1
