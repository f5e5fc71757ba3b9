"""The orbit category of a module category under a finite group action.

A GroupAction is a strict homomorphism from a finite group (multiplication
table, element 0 = identity) into the algebra automorphisms.  An orbit
morphism X -> Y is a sparse family of component matrices f_g, one per
group element, with f_g an intertwiner X -> twist(Y, g); composition is

    (h o f)_{g k}  +=  h_k @ f_g,

which is well defined because strict twisting leaves a morphism's matrix
unchanged.  Orbit morphisms restricted to a subgroup carry the subgroup
as their ``support``.

The functors: S sends a module to itself and a morphism to its single
component at the identity; T sends a module X to the direct sum of its
twists and a morphism to the block matrix with block (t, h) = f_{h^-1 t}.
T's output blocks are labeled by the twisting group element and sorted by
label, which makes the subgroup factorizations S = S[up] o S[down] and
T = T[down] o T[up] hold as exact matrix equalities, not just up to a
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import Algebra, AlgebraAut, validate_group_table
from .rep import Module, ModuleMor, hom_space, twist


class GroupAction:
    """A finite group acting strictly on an algebra by automorphisms."""

    def __init__(self, algebra: Algebra, table, auts: Sequence[AlgebraAut],
                 validate: bool = True):
        self.algebra = algebra
        self.table = np.asarray(table, dtype=np.int64)
        self.auts = list(auts)
        self.k = self.table.shape[0]
        self._inv = None
        self._twist_cache: Dict = {}
        if validate:
            check_action(self)

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        if self._inv is None:
            self._inv = [None] * self.k
            for a in range(self.k):
                for b in range(self.k):
                    if self.table[a, b] == 0:
                        self._inv[a] = b
        return self._inv[g]

    def elements(self):
        return range(self.k)

    def twisted(self, X: Module, g: int) -> Module:
        key = (id(X), g)
        hit = self._twist_cache.get(key)
        if hit is not None and hit[0] is X:
            return hit[1]
        T = twist(X, self.auts[g])
        self._twist_cache[key] = (X, T)
        return T

    def subgroup(self, elems) -> Tuple[int, ...]:
        """Validate and canonicalize a subgroup given as an element list."""
        sub = tuple(sorted(set(int(e) for e in elems)))
        if 0 not in sub:
            raise ValueError("subgroup must contain the identity")
        sset = set(sub)
        for a in sub:
            if self.inv(a) not in sset:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in sub:
                if self.mul(a, b) not in sset:
                    raise ValueError(f"subgroup not closed under product ({a}, {b})")
        return sub

    def right_coset_reps(self, sub) -> Tuple[int, ...]:
        """Least-index representative per right coset sub*g, sorted; the
        identity represents the subgroup itself."""
        sub = self.subgroup(sub)
        seen = set()
        reps = []
        for g in range(self.k):
            if g in seen:
                continue
            coset = sorted(self.mul(s, g) for s in sub)
            reps.append(coset[0])
            seen.update(coset)
        return tuple(sorted(reps))

    def full_support(self) -> Tuple[int, ...]:
        return tuple(range(self.k))

    def __repr__(self):
        return f"GroupAction(|G|={self.k} on {self.algebra!r})"


def check_action(action: GroupAction) -> bool:
    """Verify the group axioms and strictness; errors name the failing pair."""
    table = action.table
    identity = validate_group_table(table)
    if identity != 0:
        raise ValueError("group identity must be element 0")
    if len(action.auts) != action.k:
        raise ValueError("need one automorphism per group element")
    F = action.algebra.field
    d = action.algebra.dim
    if not np.array_equal(action.auts[0].matrix, F.eye(d)):
        raise ValueError("identity element must act as the identity automorphism")
    for g in range(action.k):
        action.auts[g].validate()
    for g in range(action.k):
        for h in range(action.k):
            lhs = F.vmatmul(action.auts[g].matrix, action.auts[h].matrix)
            rhs = action.auts[action.mul(g, h)].matrix
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"action is not strict at pair ({g}, {h})")
    return True


# ---------------------------------------------------------------------------


class OrbitMor:
    """Morphism in the orbit category: a sparse family of components."""

    def __init__(self, action: GroupAction, src: Module, tgt: Module, comps,
                 support=None, validate: bool = True):
        self.action = action
        self.src = src
        self.tgt = tgt
        self.support = tuple(support) if support is not None else action.full_support()
        cleaned = {}
        for g, m in comps.items():
            m = np.asarray(m, dtype=np.int64)
            if m.shape != (tgt.dim, src.dim):
                raise ValueError(f"component {g} has wrong shape")
            if m.any():
                cleaned[int(g)] = m
        self.comps = cleaned
        for g in self.comps:
            if g not in self.support:
                raise ValueError(f"component {g} outside the support")
        if validate:
            self.validate()

    def validate(self):
        """Each component f_g is an intertwiner src -> twist(tgt, g),
        checked on the algebra's generators."""
        A = self.action.algebra
        F = A.field
        for g, m in self.comps.items():
            tw = self.action.twisted(self.tgt, g)
            bad = A.first_defect(
                lambda x: (F.vmatmul(m, self.src.act(x)), F.vmatmul(tw.act(x), m)))
            if bad is not None:
                raise ValueError(
                    f"component {g} is not an intertwiner at basis element {bad[0]}"
                )
        return self

    def component(self, g: int) -> np.ndarray:
        if g in self.comps:
            return self.comps[g]
        return np.zeros((self.tgt.dim, self.src.dim), dtype=np.int64)

    def flatten(self) -> np.ndarray:
        """Fixed layout: support order, each component row-major."""
        chunks = [self.component(g).reshape(-1) for g in self.support]
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(chunks)

    def is_zero(self) -> bool:
        return not self.comps

    def add(self, other: "OrbitMor") -> "OrbitMor":
        F = self.action.algebra.field
        comps = dict(self.comps)
        for g, m in other.comps.items():
            comps[g] = F.vadd(comps.get(g, 0), m) if g in comps else m
        return OrbitMor(self.action, self.src, self.tgt, comps, self.support,
                        validate=False)

    def __eq__(self, other):
        if not isinstance(other, OrbitMor):
            return NotImplemented
        if self.src != other.src or self.tgt != other.tgt:
            return False
        if self.support != other.support:
            return False
        keys = set(self.comps) | set(other.comps)
        return all(np.array_equal(self.component(g), other.component(g)) for g in keys)

    def __repr__(self):
        return f"OrbitMor({sorted(self.comps)} of {self.tgt.dim}x{self.src.dim})"


def identity_orbitmor(X: Module, action: GroupAction, support=None) -> OrbitMor:
    return OrbitMor(
        action, X, X, {0: np.eye(X.dim, dtype=np.int64)}, support, validate=False
    )


def unflatten_orbitmor(action, src, tgt, support, vec) -> OrbitMor:
    vec = np.asarray(vec, dtype=np.int64)
    sz = tgt.dim * src.dim
    comps = {}
    for i, g in enumerate(support):
        chunk = vec[i * sz : (i + 1) * sz].reshape(tgt.dim, src.dim)
        if chunk.any():
            comps[g] = chunk
    return OrbitMor(action, src, tgt, comps, support, validate=False)


def combine_orbitmors(mors: Sequence[OrbitMor], coeffs) -> OrbitMor:
    """sum_i coeffs[i] * mors[i] for a nonempty list of parallel orbit morphisms."""
    m = mors[0]
    flat = np.stack([b.flatten() for b in mors])
    vec = m.action.algebra.field.combine(coeffs, flat)
    return unflatten_orbitmor(m.action, m.src, m.tgt, m.support, vec)


def orbit_compose(f: OrbitMor, h: OrbitMor) -> OrbitMor:
    """The composite h o f (f first).  Component indices multiply:
    (h o f)_{g*k} += h_k @ f_g."""
    if f.tgt != h.src:
        raise ValueError("orbit composition: target of f must be source of h")
    if f.action is not h.action or f.support != h.support:
        raise ValueError("orbit composition: mismatched action or support")
    F = f.action.algebra.field
    comps: Dict[int, np.ndarray] = {}
    for g, fg in f.comps.items():
        for k, hk in h.comps.items():
            idx = f.action.mul(g, k)
            prod = F.vmatmul(hk, fg)
            comps[idx] = F.vadd(comps[idx], prod) if idx in comps else prod
    return OrbitMor(f.action, f.src, h.tgt, comps, f.support, validate=False)


@dataclass
class OrbitHomSpace:
    source: Module
    target: Module
    support: tuple
    components: dict  # g -> HomSpace

    @property
    def dim(self) -> int:
        return sum(h.dim for h in self.components.values())

    def basis(self) -> List[OrbitMor]:
        """Orbit morphisms, ordered by group element then hom basis index."""
        out = []
        action = self._action
        for g in self.support:
            for m in self.components[g].basis:
                out.append(
                    OrbitMor(action, self.source, self.target, {g: m},
                             self.support, validate=False)
                )
        return out


def orbit_hom(X: Module, Y: Module, action: GroupAction, support=None) -> OrbitHomSpace:
    """Hom in the orbit category: one plain hom space per group element."""
    support = tuple(support) if support is not None else action.full_support()
    comps = {}
    for g in support:
        comps[g] = hom_space(X, action.twisted(Y, g))
    out = OrbitHomSpace(X, Y, support, comps)
    out._action = action
    return out


# ---------------------------------------------------------------------------
# the adjoint pair (S, T) and its subgroup variants


def functor_S(x, action: GroupAction, support=None):
    """Identity on objects; a morphism becomes its identity-component family."""
    if isinstance(x, Module):
        return x
    if isinstance(x, ModuleMor):
        return OrbitMor(action, x.src, x.tgt, {0: x.matrix}, support, validate=False)
    raise TypeError("functor_S expects a Module or ModuleMor")


def _twist_sum_layout(X: Module, action: GroupAction, twists: Sequence[int]):
    """Layout data for the label-sorted direct sum of twists of X.

    Returns (blocks, perm) where perm[new_coord] = unsorted_coord and the
    unsorted layout stacks twist(X, t) in the order of `twists`, each with
    X's own block subdivision."""
    m = X.dim
    labeled = all(lab is not None for lab, _ in X.blocks) and len(X.blocks) > 0
    entries = []  # (final_label, twist_pos, sub_pos, old_offset, size)
    for ti, t in enumerate(twists):
        off = 0
        for si, (lab, sz) in enumerate(X.blocks):
            final = action.mul(t, lab) if labeled else t
            entries.append((final, ti, si, ti * m + off, sz))
            off += sz
    order = sorted(range(len(entries)), key=lambda i: entries[i][:3])
    perm = np.concatenate(
        [np.arange(entries[i][3], entries[i][3] + entries[i][4]) for i in order]
    ) if entries else np.zeros(0, dtype=np.int64)
    blocks = []
    for i in order:
        final, ti, si, off, sz = entries[i]
        if blocks and blocks[-1][0] == final and blocks[-1][2] == ti:
            blocks[-1] = (final, blocks[-1][1] + sz, ti)
        else:
            blocks.append((final, sz, ti))
    blocks = tuple((lab, sz) for lab, sz, _ in blocks)
    return blocks, perm


def _t_object(X: Module, action: GroupAction, twists) -> Tuple[Module, np.ndarray]:
    F = X.field
    m = X.dim
    k = len(twists)
    blocks, perm = _twist_sum_layout(X, action, twists)
    big = F.zeros((X.algebra.dim, k * m, k * m))
    for ti, t in enumerate(twists):
        big[:, ti * m : (ti + 1) * m, ti * m : (ti + 1) * m] = action.twisted(X, t).stack()
    mats = list(big[:, perm][:, :, perm])
    return Module(X.algebra, mats, blocks=blocks, validate=False), perm


def functor_T(x, action: GroupAction, support=None):
    """T X = sum of twists of X over the support, blocks sorted by label;
    T f = the block matrix with block (t, h) = f_{h^-1 t}."""
    support = tuple(support) if support is not None else action.full_support()
    if isinstance(x, Module):
        return _t_object(x, action, support)[0]
    if isinstance(x, OrbitMor):
        f = x
        if f.support != support:
            raise ValueError("morphism support does not match the functor")
        F = f.action.algebra.field
        TX, perm_src = _t_object(f.src, action, support)
        TY, perm_tgt = _t_object(f.tgt, action, support)
        ms, mt = f.src.dim, f.tgt.dim
        k = len(support)
        big = F.zeros((k * mt, k * ms))
        for ti, t in enumerate(support):
            for hi, h in enumerate(support):
                g = action.mul(action.inv(h), t)
                if g in f.comps:
                    big[ti * mt : (ti + 1) * mt, hi * ms : (hi + 1) * ms] = f.comps[g]
        return ModuleMor(TX, TY, big[np.ix_(perm_tgt, perm_src)])
    raise TypeError("functor_T expects a Module or OrbitMor")


def adjunction_unit(X: Module, action: GroupAction) -> ModuleMor:
    """X -> T S X: inclusion into the identity-labeled block."""
    TX, perm = _t_object(X, action, action.full_support())
    F = X.field
    big = F.zeros((TX.dim, X.dim))
    big[: X.dim] = F.eye(X.dim)  # unsorted layout: identity twist comes first
    return ModuleMor(X, TX, big[perm, :])


def adjunction_counit(X: Module, action: GroupAction) -> OrbitMor:
    """S T X -> X in the orbit category: component at g projects onto the
    g-twist copy inside T X."""
    TX, perm = _t_object(X, action, action.full_support())
    F = X.field
    comps = {}
    for gi, g in enumerate(action.elements()):
        m = F.zeros((X.dim, TX.dim))
        m[:, gi * X.dim : (gi + 1) * X.dim] = F.eye(X.dim)  # unsorted layout
        comps[g] = m[:, perm]
    return OrbitMor(action, TX, X, comps, validate=False)


def lifted_aut(g: int, x, action: GroupAction, support=None):
    """The lift of a group element to the orbit category.

    Objects go to their twist; a morphism's component at k moves to
    g k g^{-1} with the same matrix.  Strict: composing lifts follows the
    group table on the nose."""
    support = tuple(support) if support is not None else action.full_support()
    if isinstance(x, Module):
        return action.twisted(x, g)
    if isinstance(x, OrbitMor):
        f = x
        comps = {}
        ginv = action.inv(g)
        for k, m in f.comps.items():
            idx = action.mul(action.mul(g, k), ginv)
            if idx not in support:
                raise ValueError(
                    f"conjugated index {idx} leaves the support; the subgroup "
                    f"is not normalized by element {g}"
                )
            comps[idx] = m
        return OrbitMor(
            action,
            action.twisted(f.src, g),
            action.twisted(f.tgt, g),
            comps,
            support,
            validate=False,
        )
    raise TypeError("lifted_aut expects a Module or OrbitMor")


def sub_inclusion_S(f: OrbitMor, action: GroupAction, sub) -> OrbitMor:
    """Extension by zero from the subgroup orbit category to the full one."""
    sub = action.subgroup(sub)
    if f.support != sub:
        raise ValueError("morphism is not supported on the given subgroup")
    return OrbitMor(action, f.src, f.tgt, dict(f.comps), None, validate=False)


def sub_restriction_T(x, action: GroupAction, sub, reps=None):
    """The right adjoint of extension by zero.

    Objects: the sum of twists over the coset representatives.  On a
    morphism over the full group, the component at gamma in the subgroup
    has block (tau, sigma) = f_{sigma^-1 gamma tau}."""
    sub = action.subgroup(sub)
    expected = action.right_coset_reps(sub)
    if reps is None:
        reps = expected
    else:
        reps = tuple(reps)
        if reps != expected:
            raise ValueError("invalid coset representatives")
    if isinstance(x, Module):
        return _t_object(x, action, reps)[0]
    if isinstance(x, OrbitMor):
        f = x
        if f.support != action.full_support():
            raise ValueError("morphism must live over the full group")
        F = action.algebra.field
        TX, perm_src = _t_object(f.src, action, reps)
        TY, perm_tgt = _t_object(f.tgt, action, reps)
        ms, mt = f.src.dim, f.tgt.dim
        comps = {}
        for gamma in sub:
            big = F.zeros((len(reps) * mt, len(reps) * ms))
            hit = False
            for ti, tau in enumerate(reps):
                for si, sigma in enumerate(reps):
                    g = action.mul(action.inv(sigma), action.mul(gamma, tau))
                    if g in f.comps:
                        big[ti * mt : (ti + 1) * mt, si * ms : (si + 1) * ms] = f.comps[g]
                        hit = True
            if hit:
                comps[gamma] = big[np.ix_(perm_tgt, perm_src)]
        return OrbitMor(action, TX, TY, comps, sub, validate=False)
    raise TypeError("sub_restriction_T expects a Module or OrbitMor")


def sub_adjunction_unit(X: Module, action: GroupAction, sub) -> OrbitMor:
    """Unit of (S[up], T[up]): inclusion into the identity-rep copy,
    as an orbit morphism over the subgroup."""
    sub = action.subgroup(sub)
    reps = action.right_coset_reps(sub)
    TX, perm = _t_object(X, action, reps)
    F = X.field
    m = F.zeros((TX.dim, X.dim))
    m[: X.dim] = F.eye(X.dim)  # unsorted layout: identity rep comes first
    return OrbitMor(action, X, TX, {0: m[perm, :]}, sub, validate=False)


def sub_adjunction_counit(X: Module, action: GroupAction, sub) -> OrbitMor:
    """Counit of (S[up], T[up]): the component at a representative g
    projects onto the g-twist copy; other components vanish."""
    sub = action.subgroup(sub)
    reps = action.right_coset_reps(sub)
    TX, perm = _t_object(X, action, reps)
    F = X.field
    comps = {}
    for gi, g in enumerate(reps):
        m = F.zeros((X.dim, TX.dim))
        m[:, gi * X.dim : (gi + 1) * X.dim] = F.eye(X.dim)
        comps[g] = m[:, perm]
    return OrbitMor(action, TX, X, comps, None, validate=False)


def adjuster_nu(g: int, X: Module, action: GroupAction) -> OrbitMor:
    """The invariance adjuster: S X -> S(twist(X, g)) with a single
    identity component at g^{-1}."""
    return OrbitMor(
        action,
        X,
        action.twisted(X, g),
        {action.inv(g): np.eye(X.dim, dtype=np.int64)},
        None,
        validate=False,
    )


def kleisli_phi_psi(x, action: GroupAction):
    """Convert between the component family and the equivariant block form.

    An OrbitMor f goes to the block matrix T f (the mu-compatible map
    A X -> A Y); a ModuleMor between T-objects goes back to the family of
    its blocks in column 0.  Round trips are exact; a block matrix that
    fails the mu-compatibility pattern is rejected."""
    if isinstance(x, OrbitMor):
        return functor_T(x, action)
    if isinstance(x, ModuleMor):
        F = action.algebra.field
        k = action.k
        mt = x.tgt.dim // k
        ms = x.src.dim // k
        if x.tgt.dim != k * mt or x.src.dim != k * ms:
            raise ValueError("block map dimensions are not multiples of |G|")
        # undo the label sort: T-objects over a plain module use ascending
        # labels, which is already the unsorted layout
        comps = {}
        for g in action.elements():
            blk = x.matrix[g * mt : (g + 1) * mt, 0:ms]
            if blk.any():
                comps[g] = blk
        src = _strip_blocks(x.src, k, ms)
        tgt = _strip_blocks(x.tgt, k, mt)
        f = OrbitMor(action, src, tgt, comps, None, validate=False)
        back = functor_T(f, action)
        if not np.array_equal(back.matrix, x.matrix):
            raise ValueError("block map does not satisfy the Kleisli pattern")
        return f
    raise TypeError("kleisli_phi_psi expects an OrbitMor or ModuleMor")


def _strip_blocks(TX: Module, k: int, m: int) -> Module:
    """Recover the underlying module from a T-object (block 0 restriction)."""
    mats = [mat[:m, :m] for mat in TX.mats]
    return Module(TX.algebra, mats, validate=False)
