"""The orbit category of a module category under a finite group action.

A GroupAction is a strict homomorphism from a finite group (multiplication
table, element 0 = identity) into the algebra automorphisms.  An orbit
morphism f: X -> Y over a support S (the whole group or a subgroup) is a
family of component matrices f_g, g in S, with f_g an intertwiner
X -> twist(Y, g).  It is stored as one array, ``stack[i] = f_{S[i]}`` of
shape (|S|, dim Y, dim X).

The orbit category is the Kleisli category of the monad T S (Cibils-Marcos,
*Skew category, Galois covering and smash product of a k-category*, Proc.
AMS 2006), so composition is Kleisli composition,

    (h o f)_c  =  sum_g  h_{g^-1 c} @ f_g,

which is well defined because strict twisting leaves a morphism's matrix
unchanged.  Read f's stack as one column of blocks: the composite is the
block matrix with block (c, g) = h_{g^-1 c}, which is T h, applied to it.
So one gather of a stack along the group table, ``_kleisli_blocks`` with
block (i, j) = f_{cols[j]^-1 gamma rows[i]}, gives every operation:

- composition is the gather of h over S times f's stack;
- T f is the gather over the support, with gamma the identity;
- T[up] f, the restriction to a subgroup, has at gamma the gather over the
  right coset representatives.

Composing with a fixed h is one linear map, T h, so it applies to a whole
stacked basis as readily as to one morphism.  An OrbitMor whose stack has
leading batch axes is a **family** of parallel morphisms with one source,
target and support; the gather keeps the batch axes and composition
broadcasts those of f and h as np.matmul does, so composing a basis with
one morphism, or every pair of basis elements, is one product.

The functors: S sends a module to itself and a morphism to its single
component at the identity; T sends a module X to the direct sum of its
twists.  T's output blocks are labeled by the twisting group element and
sorted by label, which makes the subgroup factorizations S = S[up] o
S[down] and T = T[down] o T[up] hold as exact matrix equalities, not just
up to a permutation.  The unit and counit of (S, T) are those of
(S[up], T[up]) for the trivial subgroup.

Ind along A -> A x| Gamma is T with Gamma permuting the twists: Ind X
lives on the same sum of twists (before the label sort, ``_twist_sum``),
a (x) 1 acts as on T X, and 1 (x) g sends the twist h to the twist gh.
So Res Ind = T, the monad whose Kleisli category this is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import (
    Algebra,
    AlgebraAut,
    _group_generators,
    _row_blocks,
    _struct_zeros,
    validate_group_table,
)
from .rep import Module, ModuleMor, hom_space, twist


class GroupAction:
    """A finite group acting strictly on an algebra by automorphisms."""

    def __init__(self, algebra: Algebra, table, auts: Sequence[AlgebraAut]):
        self.algebra = algebra
        self.table = np.asarray(table, dtype=np.int64)
        self.auts = list(auts)
        self.k = self.table.shape[0]
        self._twist_cache: Dict = {}
        self._t_cache: Dict = {}  # see _t_object
        check_action(self)
        # inverses[g] = g^-1, the column of the identity in row g
        self.inverses = np.argmax(self.table == 0, axis=1)

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverses[g])

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
        for e in sub:
            if not 0 <= e < self.k:
                raise ValueError(f"subgroup element {e} is not in the group of order {self.k}")
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

    def normalizes(self, g: int, sub) -> bool:
        """Whether g sub g^-1 = sub; sub is a subgroup, so lying inside it
        suffices."""
        conj = self.table[self.table[g, list(sub)], self.inverses[g]]
        return set(conj.tolist()) <= set(sub)

    def order(self, g: int, sub=(0,)) -> int:
        """The least n >= 1 with g^n in the subgroup sub: the order of g,
        or of its coset in G/sub when sub is normal."""
        sset = set(self.subgroup(sub))
        acc, n = g, 1
        while acc not in sset:
            acc, n = self.mul(acc, g), n + 1
        return n

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
    """Verify the group axioms, each distinct automorphism object once, and
    strictness; errors name the failing pair.  This is the one gate: the
    automorphism builders leave validation to it."""
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
    for aut in {id(aut): aut for aut in action.auts}.values():
        aut.validate()
    mats = np.stack([aut.matrix for aut in action.auts])
    # g's matrix times every h's against (gh)'s, one product per block of g
    for blk in _row_blocks(action.k, action.k * d * d):
        products = F.vmatmul(mats[blk, None], mats[None, :])
        bad = np.argwhere((products != mats[table[blk]]).any(axis=(2, 3)))
        if bad.size:
            g, h = bad[0].tolist()
            raise ValueError(f"action is not strict at pair ({blk.start + g}, {h})")
    return True


def make_skew_group_algebra(action: GroupAction) -> Algebra:
    """Skew group algebra A x| Gamma with (x (x) g)(y (x) h) = x g(y) (x) gh.

    The basis is b_i (x) g at index g * dim A + i.  Generated by x (x) e for
    the generators x of A and 1 (x) g for the group generators g.  The
    action is strict by construction (check_action), which is what makes
    the product associative."""
    a, table, auts, k = action.algebra, action.table, action.auts, action.k
    F = a.field
    d = a.dim
    D = d * k
    struct = _struct_zeros(D)
    for g in range(k):
        # (b_i (x) g)(b_j (x) h) = b_i * g(b_j) (x) gh, the same block for every h
        block = a.span_products(F.eye(d), auts[g].matrix.T)
        for h in range(k):
            gh = int(table[g, h])
            struct[g * d : (g + 1) * d, h * d : (h + 1) * d, gh * d : (gh + 1) * d] = block
    unit = np.zeros(D, dtype=np.int64)
    unit[:d] = a.unit
    labels = None
    if a.labels:
        labels = tuple(f"{a.labels[i]}|g{g}" for g in range(k) for i in range(d))
    group_gens = _group_generators(table, 0)
    r = len(a.generators)
    gens = np.zeros((r + len(group_gens), D), dtype=np.int64)
    gens[:r, :d] = a.generators
    for t, g in enumerate(group_gens, start=r):
        gens[t, g * d : g * d + d] = a.unit
    return Algebra(F, struct, unit, labels=labels, generators=gens)


# ---------------------------------------------------------------------------


class OrbitMor:
    """Morphism in the orbit category: its components stacked in support
    order, ``stack[i] = f_{support[i]}``.  Leading batch axes make it a
    family of parallel morphisms, ``stack[b][i] = (f_b)_{support[i]}``;
    ``comps``, ``validate`` and ``__repr__`` read a single morphism."""

    def __init__(self, action: GroupAction, src: Module, tgt: Module, comps,
                 support=None):
        """``comps`` maps group elements to component matrices; the other
        components in the support are zero.  Nothing is checked against the
        action: ``validate`` does that on request."""
        self.action = action
        self.src = src
        self.tgt = tgt
        self.support = tuple(support) if support is not None else action.full_support()
        self.stack = np.zeros((len(self.support), tgt.dim, src.dim), dtype=np.int64)
        for g, m in comps.items():
            m = np.asarray(m, dtype=np.int64)
            if m.shape != (tgt.dim, src.dim):
                raise ValueError(f"component {g} has wrong shape")
            if m.any():
                if g not in self.support:
                    raise ValueError(f"component {g} outside the support")
                self.stack[self.support.index(g)] = m

    @classmethod
    def from_stack(cls, action: GroupAction, src: Module, tgt: Module, stack,
                   support=None) -> "OrbitMor":
        """The morphism whose components are ``stack``, in support order."""
        f = cls(action, src, tgt, {}, support)
        f.stack = stack
        return f

    def with_stack(self, stack) -> "OrbitMor":
        """Same action, source, target and support; components ``stack``."""
        return OrbitMor.from_stack(self.action, self.src, self.tgt, stack, self.support)

    @property
    def comps(self) -> Dict[int, np.ndarray]:
        """The nonzero components by group element."""
        return {g: m for g, m in zip(self.support, self.stack) if m.any()}

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

    def flatten(self) -> np.ndarray:
        """Fixed layout: support order, each component row-major; a family
        keeps its batch axes."""
        width = len(self.support) * self.tgt.dim * self.src.dim
        return self.stack.reshape(self.stack.shape[:-3] + (width,))

    def __eq__(self, other):
        if not isinstance(other, OrbitMor):
            return NotImplemented
        return (self.src == other.src and self.tgt == other.tgt
                and self.support == other.support
                and np.array_equal(self.stack, other.stack))

    def __repr__(self):
        return f"OrbitMor({sorted(self.comps)} of {self.tgt.dim}x{self.src.dim})"


def identity_orbitmor(X: Module, action: GroupAction, support=None) -> OrbitMor:
    return OrbitMor(action, X, X, {0: np.eye(X.dim, dtype=np.int64)}, support)


def combine_orbitmors(mors: Sequence[OrbitMor], coeffs) -> OrbitMor:
    """sum_i coeffs[i] * mors[i] for a nonempty list of parallel orbit morphisms."""
    m = mors[0]
    return m.with_stack(m.action.algebra.field.combine(coeffs, np.stack([b.stack for b in mors])))


def _kleisli_blocks(f: OrbitMor, rows, cols, gamma: int = 0) -> np.ndarray:
    """The block matrix with block (i, j) = f_{cols[j]^-1 gamma rows[i]}:
    one gather of f's stack, indexed by two lookups in the group table,
    with a family's batch axes kept in front.  Over a support that is a
    subgroup the index never leaves it; an index outside the support
    raises."""
    action = f.action
    elem = action.table[action.inverses[list(cols)]][:, action.table[gamma, list(rows)]].T
    at = np.full(action.k, -1)
    at[list(f.support)] = np.arange(len(f.support))
    pos = at[elem]
    if (pos < 0).any():
        raise ValueError(f"group element {elem[pos < 0][0]} is outside the support "
                         f"{f.support}: it is not closed under the product")
    blocks = f.stack[..., pos, :, :]  # batch + (rows, cols, tgt.dim, src.dim)
    return blocks.swapaxes(-3, -2).reshape(
        f.stack.shape[:-3] + (len(rows) * f.tgt.dim, len(cols) * f.src.dim))


def orbit_compose(f: OrbitMor, h: OrbitMor) -> OrbitMor:
    """The composite h o f (f first): (h o f)_c = sum_g h_{g^-1 c} @ f_g,
    one product of h's gathered blocks with f's stack.  The batch axes of
    families f and h broadcast.  Raises when the support is not closed
    under the product, as g^-1 c then leaves it."""
    if f.tgt != h.src:
        raise ValueError("orbit composition: target of f must be source of h")
    if f.action is not h.action or f.support != h.support:
        raise ValueError("orbit composition: mismatched action or support")
    n = len(f.support)
    prod = f.action.algebra.field.vmatmul(
        _kleisli_blocks(h, f.support, f.support),
        f.stack.reshape(f.stack.shape[:-3] + (n * f.tgt.dim, f.src.dim)))
    return OrbitMor.from_stack(f.action, f.src, h.tgt,
                               prod.reshape(prod.shape[:-2] + (n, h.tgt.dim, f.src.dim)),
                               f.support)


@dataclass
class OrbitHomSpace:
    source: Module
    target: Module
    support: tuple
    components: dict  # g -> HomSpace
    action: GroupAction

    @property
    def dim(self) -> int:
        return sum(h.dim for h in self.components.values())

    def family(self) -> OrbitMor:
        """The basis as one family of shape (dim, |S|, tgt, src), ordered by
        group element then hom basis index; member i has one nonzero
        component."""
        stack = np.zeros((self.dim, len(self.support), self.target.dim, self.source.dim),
                         dtype=np.int64)
        at = [(pos, m) for pos, g in enumerate(self.support) for m in self.components[g].basis]
        for i, (pos, m) in enumerate(at):
            stack[i, pos] = m
        return OrbitMor.from_stack(self.action, self.source, self.target, stack, self.support)

    def basis(self) -> List[OrbitMor]:
        """The family as a list of orbit morphisms."""
        fam = self.family()
        return [fam.with_stack(s) for s in fam.stack]


def orbit_hom(X: Module, Y: Module, action: GroupAction, support=None) -> OrbitHomSpace:
    """Hom in the orbit category: one plain hom space per group element."""
    support = tuple(support) if support is not None else action.full_support()
    comps = {g: hom_space(X, action.twisted(Y, g)) for g in support}
    return OrbitHomSpace(X, Y, support, comps, action)


# ---------------------------------------------------------------------------
# the adjoint pair (S, T) and its subgroup variants


def functor_S(x, action: GroupAction, support=None):
    """Identity on objects; a morphism becomes its identity-component family."""
    if isinstance(x, Module):
        return x
    if isinstance(x, ModuleMor):
        return OrbitMor(action, x.src, x.tgt, {0: x.matrix}, support)
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


def _twist_sum(X: Module, action: GroupAction, twists) -> np.ndarray:
    """The action stack of the sum of the twists of X in the order of
    ``twists``: block-diagonal, with diagonal block i the action of
    twist(X, twists[i]).  T X is this sum with its blocks sorted by label;
    Ind X over the skew group algebra permutes its column blocks."""
    m = X.dim
    big = X.field.zeros((X.algebra.dim, len(twists) * m, len(twists) * m))
    for ti, t in enumerate(twists):
        big[:, ti * m : (ti + 1) * m, ti * m : (ti + 1) * m] = action.twisted(X, t).mats
    return big


def _t_object(X: Module, action: GroupAction, twists) -> Tuple[Module, np.ndarray]:
    """(T-object, perm): the label-sorted sum of the twists of X over
    ``twists``, and perm[new_coord] = unsorted_coord.

    Built once per (X, twists) for the life of the action, keyed and
    guarded as ``GroupAction.twisted`` is: the key holds id(X), and a hit
    counts only if the stored module is X itself, so a recycled id or a
    distinct module with equal content builds anew.  The result is a
    function of X's matrices and blocks and the action alone, and no
    caller mutates it, so a hit returns what a build would."""
    key = (id(X), tuple(twists))
    hit = action._t_cache.get(key)
    if hit is not None and hit[0] is X:
        return hit[1]
    blocks, perm = _twist_sum_layout(X, action, twists)
    mats = _twist_sum(X, action, twists)[:, perm][:, :, perm]
    built = Module(X.algebra, mats, blocks=blocks, validate=False), perm
    action._t_cache[key] = (X, built)
    return built


def functor_T(x, action: GroupAction, support=None):
    """T X = sum of twists of X over the support, blocks sorted by label;
    T f = the block matrix with block (t, h) = f_{h^-1 t}."""
    support = tuple(support) if support is not None else action.full_support()
    if isinstance(x, Module):
        return _t_object(x, action, support)[0]
    if isinstance(x, OrbitMor):
        if x.support != support:
            raise ValueError("morphism support does not match the functor")
        TX, perm_src = _t_object(x.src, action, support)
        TY, perm_tgt = _t_object(x.tgt, action, support)
        return ModuleMor(TX, TY, _kleisli_blocks(x, support, support)[np.ix_(perm_tgt, perm_src)])
    raise TypeError("functor_T expects a Module or OrbitMor")


def adjunction_unit(X: Module, action: GroupAction) -> ModuleMor:
    """X -> T S X: inclusion into the identity-labeled block, the unit of
    (S[up], T[up]) for the trivial subgroup."""
    eta = sub_adjunction_unit(X, action, (0,))
    return ModuleMor(X, eta.tgt, eta.stack[0])


def adjunction_counit(X: Module, action: GroupAction) -> OrbitMor:
    """S T X -> X in the orbit category: the counit of (S[up], T[up]) for
    the trivial subgroup."""
    return sub_adjunction_counit(X, action, (0,))


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
        return OrbitMor(action, action.twisted(f.src, g), action.twisted(f.tgt, g), comps,
                        support)
    raise TypeError("lifted_aut expects a Module or OrbitMor")


def sub_inclusion_S(f: OrbitMor, action: GroupAction, sub) -> OrbitMor:
    """Extension by zero from the subgroup orbit category to the full one."""
    sub = action.subgroup(sub)
    if f.support != sub:
        raise ValueError("morphism is not supported on the given subgroup")
    return OrbitMor(action, f.src, f.tgt, f.comps)


def sub_restriction_T(x, action: GroupAction, sub):
    """The right adjoint of extension by zero.

    Objects: the sum of twists over the coset representatives.  On a
    morphism over the full group, the component at gamma in the subgroup
    has block (tau, sigma) = f_{sigma^-1 gamma tau}."""
    sub = action.subgroup(sub)
    reps = action.right_coset_reps(sub)
    if isinstance(x, Module):
        return _t_object(x, action, reps)[0]
    if isinstance(x, OrbitMor):
        if x.support != action.full_support():
            raise ValueError("morphism must live over the full group")
        TX, perm_src = _t_object(x.src, action, reps)
        TY, perm_tgt = _t_object(x.tgt, action, reps)
        stack = np.stack([_kleisli_blocks(x, reps, reps, gamma)[np.ix_(perm_tgt, perm_src)]
                          for gamma in sub])
        return OrbitMor.from_stack(action, TX, TY, stack, sub)
    raise TypeError("sub_restriction_T expects a Module or OrbitMor")


def sub_adjunction_unit(X: Module, action: GroupAction, sub) -> OrbitMor:
    """Unit of (S[up], T[up]): inclusion into the identity-rep copy,
    as an orbit morphism over the subgroup."""
    sub = action.subgroup(sub)
    TX, perm = _t_object(X, action, action.right_coset_reps(sub))
    # unsorted layout: the identity representative's copy comes first
    return OrbitMor(action, X, TX, {0: X.field.eye(TX.dim)[perm, : X.dim]}, sub)


def sub_adjunction_counit(X: Module, action: GroupAction, sub) -> OrbitMor:
    """Counit of (S[up], T[up]): the component at a representative g
    projects onto the g-twist copy; other components vanish."""
    sub = action.subgroup(sub)
    reps = action.right_coset_reps(sub)
    TX, perm = _t_object(X, action, reps)
    stack = np.zeros((action.k, X.dim, TX.dim), dtype=np.int64)
    stack[list(reps)] = X.field.eye(TX.dim)[:, perm].reshape(len(reps), X.dim, TX.dim)
    return OrbitMor.from_stack(action, TX, X, stack)


def adjuster_nu(g: int, X: Module, action: GroupAction) -> OrbitMor:
    """The invariance adjuster: S X -> S(twist(X, g)) with a single
    identity component at g^{-1}."""
    return OrbitMor(action, X, action.twisted(X, g),
                    {action.inv(g): np.eye(X.dim, dtype=np.int64)})


def kleisli_phi_psi(x, action: GroupAction):
    """Convert between the component family and the equivariant block form.

    An OrbitMor f goes to the block matrix T f (the mu-compatible map
    A X -> A Y); a ModuleMor between T-objects goes back to the family of
    its blocks in column 0.  Round trips are exact; a block matrix that
    fails the mu-compatibility pattern is rejected."""
    if isinstance(x, OrbitMor):
        return functor_T(x, action)
    if isinstance(x, ModuleMor):
        k = action.k
        mt = x.tgt.dim // k
        ms = x.src.dim // k
        if x.tgt.dim != k * mt or x.src.dim != k * ms:
            raise ValueError("block map dimensions are not multiples of |G|")
        # undo the label sort: T-objects over a plain module use ascending
        # labels, which is already the unsorted layout
        src = _strip_blocks(x.src, k, ms)
        tgt = _strip_blocks(x.tgt, k, mt)
        f = OrbitMor.from_stack(action, src, tgt, x.matrix[:, :ms].reshape(k, mt, ms))
        # T f without its T-objects: over unlabeled modules the label sort
        # is the identity, so T f is the bare gather
        full = action.full_support()
        if not np.array_equal(_kleisli_blocks(f, full, full), x.matrix):
            raise ValueError("block map does not satisfy the Kleisli pattern")
        return f
    raise TypeError("kleisli_phi_psi expects an OrbitMor or ModuleMor")


def _strip_blocks(TX: Module, k: int, m: int) -> Module:
    """Recover the underlying module from a T-object (block 0 restriction)."""
    return Module(TX.algebra, TX.mats[:, :m, :m], validate=False)
