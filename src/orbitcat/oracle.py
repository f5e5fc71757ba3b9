"""Independent verification layers for the orbit-category pipeline.

The skew group algebra realizes induction/restriction classically: Ind M
lives on the sum of the twists of M, the orbit layer's T M before its
label sort, and 1 (x) g permutes the twists, so induce_skew is that twist
sum and one column gather.  The orbit category is the Kleisli category of
T = Res Ind, so the comparison functor into A x| Gamma-modules is fully
faithful in every characteristic, and the decomposition of Ind M must
match the pipeline's stage-2 summands whether or not the counit splits
(the splitting decides something else: whether every A x| Gamma-module
is a summand of an induced one).  The comparison never assumes the match;
it recomputes both sides and reports agreement or the mismatch.

The Galois layer builds the twisted group rings M x| G of towers of
finite fields as skew group algebras: G acts on M by Frobenius powers
(frobenius_action), so M x| G is make_skew_group_algebra of that action.
It checks that the big ring restricts to a free module of the predicted
rank over the small one, and verifies that the induced monad's summand
bimodules compose along the expected semidirect product table.  This
module alone knows the power-basis layout of a tower (SubfieldMap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .algebra import Algebra, AlgebraAut, CertificationError, validate_group_table
from .clifford import CliffordReport
from .ffield import FF, FiniteField
from .linalg import SpanSolver, inverse, kernel_basis, rank, rref, solve
from .orbit import GroupAction, _twist_sum, make_skew_group_algebra
from .rep import Module, ModuleMor, decompose, hom_space


class SkewContext:
    """A strict action together with its skew group algebra A x| Gamma.

    Carries the embedding a -> a (x) 1 and the sections g -> 1 (x) g, one
    row per group element; the conjugation identity
    (1 (x) g)(a (x) 1)(1 (x) g)^-1 = g(a) (x) 1 is verified on construction."""

    def __init__(self, action: GroupAction):
        self.action = action
        self.base = action.algebra
        self.skew = make_skew_group_algebra(action)
        F, d = self.base.field, self.base.dim
        self.embed = F.eye(self.skew.dim)[:, :d]  # block g = 0 comes first
        self.sections = np.kron(F.eye(action.k), self.base.unit)
        self._verify()

    def _verify(self):
        """Both identities on every basis pair, each in one batched product;
        an error names the first pair where one fails."""
        F, skew, d = self.base.field, self.skew, self.base.dim
        lhs = skew.span_products(self.embed.T, self.embed.T)
        rhs = F.zeros(lhs.shape)
        rhs[..., :d] = self.base.struct
        bad = np.argwhere((lhs != rhs).any(axis=-1))
        if bad.size:
            raise ValueError(f"embedding is not multiplicative at pair {tuple(bad[0].tolist())}")
        # conj[g, i] = (1 (x) g)(b_i (x) 1) times (1 (x) g)^-1
        left = skew.span_products(self.sections, self.embed.T)
        inv_sections = self.sections[self.action.inverses]
        conj = F.vmatmul(inv_sections[:, None, None, :], F.combine(left, skew.struct))[:, :, 0]
        target = F.zeros(conj.shape)
        target[..., :d] = np.stack([aut.matrix.T for aut in self.action.auts])
        bad = np.argwhere((conj != target).any(axis=-1))
        if bad.size:
            raise ValueError(f"section conjugation fails at {tuple(bad[0].tolist())}")

    def restrict(self, X: Module) -> Module:
        """A skew-algebra module viewed over the base algebra."""
        return restrict_along(self.embed, self.skew, self.base, X)


def induce_skew(ctx: SkewContext, M: Module) -> Module:
    """The induced module over the skew algebra on the space sum_h (h (x) M).

    The action is (a (x) g) . (h (x) m) = gh (x) rho(sigma_{(gh)^-1}(a)) m.
    Its restriction to the base algebra is the sum of the twists of M in
    group order, T M before its label sort, and 1 (x) g permutes those
    twists: column block h of b_i (x) g is column block gh of the action
    of b_i on that sum."""
    action, m = ctx.action, M.dim
    twists = _twist_sum(M, action, action.full_support())
    cols = (action.table[:, :, None] * m + np.arange(m)).reshape(action.k, -1)
    # (b_i, rows, g, cols) -> the skew basis order, index g * dim A + i
    mats = twists[:, :, cols].transpose(2, 0, 1, 3).reshape((-1,) + twists.shape[1:])
    return Module(ctx.skew, list(mats), validate=False)


def counit_split_test(ctx: SkewContext, X: Module) -> bool:
    """Decide whether the counit Ind Res X -> X splits over the skew algebra.

    The counit sends g (x) x to (1 (x) g) . x; a splitting is a module
    section, a combination of the Hom(X, Ind Res X) basis that the counit
    sends to the identity, found by one linear solve.  True is expected
    exactly when the characteristic does not divide the group order, but
    the outcome is computed, never assumed."""
    action = ctx.action
    F = ctx.base.field
    k, n = action.k, X.dim
    ind_res = induce_skew(ctx, ctx.restrict(X))
    # column block g is the action of 1 (x) g on X
    counit = F.combine(ctx.sections, X.stack()).transpose(1, 0, 2).reshape(n, k * n)
    ModuleMor(ind_res, X, counit).validate()
    # s = sum_j c_j h_j over the basis of Hom(X, Ind Res X); solve counit s = id
    H = hom_space(X, ind_res).basis
    comps = F.vmatmul(counit, np.reshape(H, (len(H), k * n, n)))  # counit h_j
    return solve(F, comps.reshape(len(H), -1).T, F.eye(n).reshape(-1)) is not None


def oracle_compare(report: CliffordReport, ctx: SkewContext,
                   M: Optional[Module] = None) -> dict:
    """Compare the pipeline's stage-2 signature with the classical
    decomposition of the induced module over the skew algebra.

    The comparison functor from the orbit category to A x| Gamma-modules
    is fully faithful in every characteristic (Res Ind = T), so the two
    signatures agree whether or not the counit splits.  A mismatch is
    reported, never raised: it would falsify the claimed equivalence, so
    it belongs in the result."""
    if M is None:
        M = report.module
    if M is None:
        raise ValueError("the report does not carry its module; pass it explicitly")
    ind = induce_skew(ctx, M)
    dec = decompose(ind, certify=False)
    classical = {}
    for s in dec.summands:
        classical[s.module.dim] = classical.get(s.module.dim, 0) + s.multiplicity
    classical_sig = sorted(classical.items())
    orbit_sig = report.signature()
    match = classical_sig == orbit_sig
    block = {
        "status": "compared",
        "classical_signature": classical_sig,
        "orbit_signature": orbit_sig,
        "match": match,
    }
    report.oracle = block
    return block


# ---------------------------------------------------------------------------
# Galois scenarios


def _prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def first_root(field: FiniteField, coeffs) -> int:
    """The least code of the field that is a root of the polynomial with
    little-endian F_p coefficients (a field modulus, say)."""
    codes = np.arange(field.q, dtype=np.int64)
    acc = field.zeros(field.q)
    for c in reversed(coeffs):
        acc = field.vadd(field.vmul(acc, codes), int(c) % field.p)
    roots = np.flatnonzero(acc == 0)
    if roots.size == 0:
        raise RuntimeError("polynomial has no root in the field")
    return int(roots[0])


class SubfieldMap:
    """F_q = F_{p^e} inside a big field F_{p^(e*m)}, and the coordinates of
    big-field elements over F_q in the power basis x^0..x^(m-1), where x
    generates the big field over F_p."""

    def __init__(self, q: int, m: int):
        p, e = _prime_power(q)
        self.p, self.e, self.m = p, e, m
        self.base = FF(p, e)
        self.big = big = FF(p, e * m)
        self.x = big.from_digits([0, 1] + [0] * (e * m - 2)) if e * m > 1 else 1
        # F_q's generator goes to the least root of its modulus
        alpha = 1 if e == 1 else first_root(big, self.base.modulus)
        # columns: digits of alpha^s * x^t over F_p
        cols = [big.digits(big.mul(big.pow(alpha, s), big.pow(self.x, t)))
                for t in range(m) for s in range(e)]
        self._fp = FF(p)
        self._basis_inv = inverse(self._fp, np.array(cols, dtype=np.int64).T)

    def coords(self, big_code: int) -> np.ndarray:
        """Coordinates over F_q in the power basis x^0..x^(m-1)."""
        y = self._fp.vmatmul(self._basis_inv, np.array(self.big.digits(big_code))[:, None])[:, 0]
        out = np.zeros(self.m, dtype=np.int64)
        for t in range(self.m):
            out[t] = self.base.from_digits(y[t * self.e : (t + 1) * self.e])
        return out


def frobenius_action(q: int, deg_m: int, table, phi) -> GroupAction:
    """G acting on M = F_{q^deg_m} by g -> Frob_q^phi(g).

    M is an F_q-algebra on the power basis x^0..x^(deg_m - 1), generated by
    x when deg_m > 1.  phi maps each group element to a q-power Frobenius
    exponent modulo deg_m; it must be a homomorphism.  The skew group
    algebra of the result is the twisted group ring M x| G, on the basis
    x^t (x) g."""
    table = np.asarray(table, dtype=np.int64)
    validate_group_table(table)
    k = table.shape[0]
    phi = [int(phi[g]) % deg_m for g in range(k)]
    for g in range(k):
        for h in range(k):
            if phi[table[g, h]] != (phi[g] + phi[h]) % deg_m:
                raise ValueError(f"phi is not a homomorphism at pair ({g}, {h})")
    sf = SubfieldMap(q, deg_m)
    big, e = sf.big, sf.e
    xp = [big.pow(sf.x, t) for t in range(deg_m)]
    struct = np.array([[sf.coords(big.mul(a, b)) for b in xp] for a in xp])
    eye = sf.base.eye(deg_m)
    M = Algebra(sf.base, struct, eye[0], generators=eye[1:2])  # x, or none when deg_m = 1
    # column b of g's matrix: the coordinates of Frob_q^phi(g)(x^b); check_action
    # validates each automorphism
    auts = [AlgebraAut(M, np.array([sf.coords(big.frobenius(b, e * phi[g])) for b in xp]).T,
                       validate=False)
            for g in range(k)]
    return GroupAction(M, table, auts)


@dataclass
class GaloisScenario:
    """A tower F_q <= L <= M with a group mapping onto Frobenius powers.

    deg_l and deg_m are the degrees of L and M over F_q; phi sends each
    element of G to a q-power Frobenius exponent mod deg_m; H is a normal
    subgroup of G.  Delta = Gal(M:L) is generated by the deg_l-th power of
    the Frobenius."""

    q: int
    deg_l: int
    deg_m: int
    table: list
    phi: list
    H: list

    def __post_init__(self):
        _prime_power(self.q)
        if self.deg_l < 1 or self.deg_m < 1:
            raise ValueError("the degrees of L and M must be at least 1")
        self.table = np.asarray(self.table, dtype=np.int64)
        identity = validate_group_table(self.table)
        if identity != 0:
            raise ValueError("group identity must be element 0")
        if self.deg_m % self.deg_l != 0:
            raise ValueError("hypothesis violated: deg L must divide deg M")
        k = self.table.shape[0]
        if len(self.phi) != k:
            raise ValueError(f"phi must have one entry per group element ({k})")
        self.phi = [int(self.phi[g]) % self.deg_m for g in range(k)]
        for g in range(k):
            for h in range(k):
                if self.phi[self.table[g, h]] != (self.phi[g] + self.phi[h]) % self.deg_m:
                    raise ValueError("hypothesis violated: phi is not a homomorphism")
        Hs = sorted(set(int(h) for h in self.H))
        if not all(0 <= h < k for h in Hs):
            raise ValueError(f"H has elements outside the group of order {k}")
        if 0 not in Hs:
            raise ValueError("hypothesis violated: H must contain the identity")
        hset = set(Hs)
        for a in Hs:
            for b in Hs:
                if self.table[a, b] not in hset:
                    raise ValueError("hypothesis violated: H is not a subgroup")
        for g in range(k):
            ginv = next(x for x in range(k) if self.table[g, x] == 0)
            for h in Hs:
                if self.table[self.table[g, h], ginv] not in hset:
                    raise ValueError("hypothesis violated: H is not normal in G")
        self.H = Hs
        # [phi(H), Delta] = 1 holds automatically: the Galois group of a
        # finite field is abelian.  Nothing to check beyond the structure.

    @property
    def delta_order(self) -> int:
        return self.deg_m // self.deg_l

    def delta_exponents(self) -> List[int]:
        """Frobenius exponents of Gal(M:L) inside Gal(M:F_q)."""
        return [t * self.deg_l for t in range(self.delta_order)]

    def coset_reps(self) -> List[int]:
        """The least element of each coset Hg, sorted."""
        k = self.table.shape[0]
        return sorted({min(int(self.table[h, g]) for h in self.H) for g in range(k)})


@dataclass
class GaloisTower:
    """The rings of a Galois scenario, built once for both of its checks:
    big = M x| G, its subring small = L x| H, the embedding emb (column j
    is the image of small basis element j), the power-basis layout sf of M
    over F_q, and theta, an element of M whose Gal(M:L)-orbit is an
    L-basis of M."""

    sc: GaloisScenario
    big: Algebra
    small: Algebra
    emb: np.ndarray
    sf: SubfieldMap
    theta: int


def galois_build(sc: GaloisScenario) -> GaloisTower:
    """Build M x| G, its subring L x| H, and the embedding between them,
    verified to be multiplicative and unit-preserving."""
    big = make_skew_group_algebra(frobenius_action(sc.q, sc.deg_m, sc.table, sc.phi))
    h_index = {h: i for i, h in enumerate(sc.H)}
    h_table = [[h_index[int(sc.table[a, b])] for b in sc.H] for a in sc.H]
    phi_h = [sc.phi[h] % sc.deg_l for h in sc.H]
    small = make_skew_group_algebra(frobenius_action(sc.q, sc.deg_l, h_table, phi_h))

    sf = SubfieldMap(sc.q, sc.deg_m)
    # the L-basis inside M: powers of the image y of the small field's
    # generator, the first root of the small modulus
    bigf = sf.big
    y = first_root(bigf, FF(sf.p, sf.e * sc.deg_l).modulus)
    ypow = [bigf.pow(y, t) for t in range(sc.deg_l)]
    F = big.field
    emb = np.zeros((big.dim, small.dim), dtype=np.int64)
    for hi, h in enumerate(sc.H):
        for t in range(sc.deg_l):
            # over F_q in the big power basis
            emb[h * sc.deg_m : (h + 1) * sc.deg_m, hi * sc.deg_l + t] = sf.coords(ypow[t])
    # verify multiplicativity on all basis pairs: emb(b_i) emb(b_j) = emb(b_i b_j)
    bad = np.argwhere((big.span_products(emb.T, emb.T) != F.vmatmul(small.struct, emb.T))
                      .any(axis=2))
    if len(bad):
        raise ValueError(f"embedding not multiplicative at pair ({bad[0][0]}, {bad[0][1]})")
    unit_img = F.vmatmul(emb, small.unit[:, None])[:, 0]
    if not np.array_equal(unit_img, big.unit):
        raise ValueError("embedding does not preserve the unit")
    return GaloisTower(sc, big, small, emb, sf, normal_basis_element(sc, sf, ypow))


def restrict_along(emb, big: Algebra, small: Algebra, X: Module) -> Module:
    """View a big-algebra module over the small algebra via the embedding."""
    mats = X.field.combine(emb.T, X.stack())
    return Module(small, list(mats), validate=False)


def galois_rank_check(tower: GaloisTower) -> dict:
    """The big ring restricted to the small one is free of rank
    r = |Delta| * |G : H|, certified by the normal-basis element theta.

    The r generators delta(theta) (x) g, for delta in Delta and g a coset
    representative, have r * dim(small) = dim(big) left multiples by the
    small ring's basis; they span the big ring exactly when they form a
    basis, that is, when the big ring is left-free with basis indexed by
    Delta x G/H."""
    sc, big, sf = tower.sc, tower.big, tower.sf
    coset_reps = sc.coset_reps()
    gens = []
    for d_exp in sc.delta_exponents():
        dtheta = sf.coords(sf.big.frobenius(tower.theta, sf.e * d_exp))
        for g in coset_reps:
            gen = np.zeros(big.dim, dtype=np.int64)
            gen[g * sc.deg_m : (g + 1) * sc.deg_m] = dtheta
            gens.append(gen)
    span = big.span_products(tower.emb.T, np.stack(gens)).reshape(-1, big.dim)
    return {
        "ok": rank(big.field, span) == big.dim,
        "rank": len(gens),
        "restricted_dim": big.dim,
        "free_dim": len(gens) * tower.small.dim,
    }


def normal_basis_element(sc: GaloisScenario, sf: SubfieldMap, ypow) -> int:
    """First element of M (in code order) whose Gal(M:L)-orbit is an
    L-basis of M; ypow is the power basis of L inside M."""
    bigf = sf.big
    F = sf.base
    for theta in range(1, bigf.q):
        rows = []
        for d_exp in sc.delta_exponents():
            dtheta = bigf.frobenius(theta, sf.e * d_exp)
            for ys in ypow:
                rows.append(sf.coords(bigf.mul(ys, dtheta)))
        if rank(F, np.stack(rows)) == sc.deg_m:
            return theta
    raise RuntimeError("no normal basis element found")  # unreachable


def _is_inner_automorphism(B: Algebra, gamma) -> bool:
    """Whether the automorphism with coordinate matrix gamma is inner.

    Solves the twisted centralizer c * b = gamma(b) * c and scans it for an
    invertible element (basis vectors, then pairwise combinations).  The
    condition is imposed on B's generators: gamma is multiplicative, so it
    then holds on every word in them."""
    F = B.field
    d = B.dim
    rows = [np.zeros((0, d), dtype=np.int64)]
    for g in B.generators:
        gg = F.vmatmul(gamma, g[:, None])[:, 0]
        # condition on c: R_g(c) - L_{gamma(g)}(c) = 0
        rows.append(F.vsub(B.right_mult_matrix(g), B.left_mult_matrix(gg)))
    system = np.concatenate(rows, axis=0)
    K = kernel_basis(F, system)
    if not K:
        return False
    from .linalg import is_invertible

    cands = [np.asarray(v) for v in K]
    extra = []
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            extra.append(F.vadd(cands[i], cands[j]))
            for lam in range(2, F.q):
                extra.append(F.vadd(cands[i], F.vmul(lam, cands[j])))
    for c in cands + extra:
        if is_invertible(F, B.left_mult_matrix(c)):
            return True
    return False


def enveloping_algebra(B: Algebra) -> Algebra:
    """B (x) B^op; its modules are exactly the (B, B)-bimodules."""
    F = B.field
    d = B.dim
    # struct[i, p, j, q, k, l] = c[i, j, k] * c[q, p, l]
    c = B.struct
    struct = F.vmul(c[:, None, :, None, :, None], c.transpose(1, 0, 2)[None, :, None, :, None, :])
    struct = struct.reshape(d * d, d * d, d * d)
    unit = np.kron(B.unit, B.unit)
    return Algebra(F, struct, unit, validate=False)


def bimodule_as_module(Benv: Algebra, B: Algebra, big: Algebra, emb,
                       coords) -> Module:
    """A subspace of the big ring closed under both-sided multiplication by
    the embedded small ring, as a module over the enveloping algebra."""
    F = B.field
    d = B.dim
    S = SpanSolver(F, coords)
    k = len(coords)
    mats = []
    for i in range(d):
        Li = big.left_mult_matrix(emb[:, i])
        for p in range(d):
            Rp = big.right_mult_matrix(emb[:, p])
            op = F.vmatmul(Li, Rp)
            images = F.vmatmul(coords, op.T)
            mats.append(S.batch_coords(images).T)
    return Module(Benv, mats, validate=False)


def _both_sided_free_generator(B: Algebra, big: Algebra, emb, basis):
    """A single generator exhibiting the span as free rank-1 on both sides."""
    F = B.field
    small_img = emb.T
    expected = len(basis)
    if expected != B.dim:
        return None
    S = SpanSolver(F, basis)
    candidates = [basis[i] for i in range(len(basis))]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for lam in range(1, F.q):
                candidates.append(F.vadd(basis[i], F.vmul(lam, basis[j])))
    for u in candidates:
        left = big.span_products(small_img, u[None, :])[:, 0, :]
        if rank(F, left) != expected or S.residual(left).any():
            continue
        right = big.span_products(u[None, :], small_img)[0]
        if rank(F, right) == expected and not S.residual(right).any():
            return u
    return None


def _group_free_pieces(B: Algebra, big: Algebra, emb, fine, target_dim):
    """Partition fine bimodule summands into unions free of rank one on
    both sides.  Returns a list of (rows, generator) or None."""
    F = B.field
    n = len(fine)
    used = [False] * n
    out = []

    def try_build(start):
        # depth-first search for a subset containing `start` of total
        # dimension target_dim that admits a two-sided free generator
        chosen = [start]
        dims = len(fine[start])

        def extend():
            nonlocal dims
            if dims == target_dim:
                rows = np.concatenate([fine[i] for i in chosen], axis=0)
                rows, _ = rref(F, rows)
                if len(rows) != target_dim:
                    return None
                u = _both_sided_free_generator(B, big, emb, rows)
                if u is not None:
                    return rows, u
                return None
            for j in range(n):
                if used[j] or j in chosen or dims + len(fine[j]) > target_dim:
                    continue
                chosen.append(j)
                dims += len(fine[j])
                hit = extend()
                if hit is not None:
                    return hit
                chosen.pop()
                dims -= len(fine[j])
            return None

        hit = extend()
        if hit is not None:
            for i in chosen:
                used[i] = True
        return hit

    for i in range(n):
        if used[i]:
            continue
        hit = try_build(i)
        if hit is None:
            return None
        out.append(hit)
    return out


def galois_monad_group_check(tower: GaloisTower) -> dict:
    """Decompose the big ring into bimodule summands over the small one and
    verify the induced tensor functors compose along Delta x| G/H.

    Per coset block of the big ring, the bimodule decomposition must yield
    |Delta| summands, each free of rank one on both sides; such a summand
    acts on modules as the twist by an algebra automorphism beta.  The
    composition check is functor-level: the twist of a composable pair must
    agree, up to an inner automorphism (a natural isomorphism of twist
    functors), with the twist of some summand in the product coset block,
    and products of summand subspaces must stay inside that block."""
    sc, big, small, emb = tower.sc, tower.big, tower.small, tower.emb
    F = big.field
    coset_reps = sc.coset_reps()
    deltas = sc.delta_exponents()
    small_img = emb.T
    expected_dim = sc.deg_l * len(sc.H)

    # bimodule decomposition per coset block.  The Krull-Schmidt pieces can
    # be finer than the rank-one-free summand functors (for commutative
    # small rings they always are), so the fine pieces are regrouped into
    # unions that are free of rank one on both sides.
    Benv = enveloping_algebra(small)
    blocks: Dict[int, list] = {}
    betas: Dict[int, List[np.ndarray]] = {}
    for g in coset_reps:
        rows = []
        for h in sc.H:
            pos = int(sc.table[h, g])
            for t in range(sc.deg_m):
                v = np.zeros(big.dim, dtype=np.int64)
                v[pos * sc.deg_m + t] = 1
                rows.append(v)
        coords = np.stack(rows)
        block_mod = bimodule_as_module(Benv, small, big, emb, coords)
        dec = decompose(block_mod, certify=False)
        fine = []
        for s in dec.summands:
            for inc, pr in s.witnesses:
                fine.append(F.vmatmul(inc.T, coords))  # rows span the piece
        grouped = _group_free_pieces(small, big, emb, fine, expected_dim)
        if grouped is None:
            return {"ok": False, "failing": ("free grouping", g)}
        if len(grouped) != len(deltas):
            return {"ok": False, "failing": ("summand count", g, len(grouped))}
        blocks[g] = []
        betas[g] = []
        for piece_rows, u in grouped:
            right_rows = big.span_products(u[None, :], small_img)[0]
            # beta: column j holds emb(b_j) * u in the right basis u * emb(b_t)
            lefts = big.span_products(small_img, u[None, :])[:, 0, :]
            beta = solve(F, right_rows.T, lefts.T)
            if beta is None:
                return {"ok": False, "failing": ("right coords", g)}
            AlgebraAut(small, beta)  # certifies the self-equivalence
            blocks[g].append(piece_rows)
            betas[g].append(beta)

    # composition: coset part exact, twist part up to inner automorphism
    for g1 in coset_reps:
        for g2 in coset_reps:
            g3 = min(int(sc.table[h, sc.table[g1, g2]]) for h in sc.H)
            block_cols = np.zeros(big.dim, dtype=bool)
            for h in sc.H:
                pos = int(sc.table[h, sc.table[g1, g2]])
                block_cols[pos * sc.deg_m : (pos + 1) * sc.deg_m] = True
            for i1, P1 in enumerate(blocks[g1]):
                for i2, P2 in enumerate(blocks[g2]):
                    prods = big.span_products(P1, P2).reshape(-1, big.dim)
                    if prods[:, ~block_cols].any():
                        return {
                            "ok": False,
                            "failing": ("coset", (g1, i1), (g2, i2)),
                        }
                    comp = F.vmatmul(betas[g2][i2], betas[g1][i1])
                    hit = False
                    for b3 in betas[g3]:
                        gamma = F.vmatmul(inverse(F, b3), comp)
                        if _is_inner_automorphism(small, gamma):
                            hit = True
                            break
                    if not hit:
                        return {
                            "ok": False,
                            "failing": ("table", (g1, i1), (g2, i2)),
                        }

    # order profile of the abstract semidirect product (the conjugation
    # action is trivial: the Galois group of a finite field is abelian)
    elements = [(d, g) for d in deltas for g in coset_reps]
    ident = (0, coset_reps[0])

    def mul_pair(a, b):
        d3 = (a[0] + b[0]) % sc.deg_m
        g3 = min(int(sc.table[h, sc.table[a[1], b[1]]]) for h in sc.H)
        return (d3, g3)

    orders = []
    for el in elements:
        acc = el
        order = 1
        while acc != ident:
            acc = mul_pair(acc, el)
            order += 1
            if order > len(elements):
                raise CertificationError("element order exceeds the group order")
        orders.append(order)
    return {
        "ok": True,
        "group_order": len(elements),
        "element_orders": sorted(orders),
        "theta": tower.theta,
    }
