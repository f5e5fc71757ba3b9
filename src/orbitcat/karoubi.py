"""Idempotent completion of the orbit category.

Objects are pairs (X, e) with e an orbit-morphism idempotent; the hom
space between (X, e) and (Y, f) is the compression f o Hom(X, Y) o e, so
the identity of (X, e) is e itself.  Decomposition of a completed object
goes through the corner algebra e o End(X) o e: its primitive orthogonal
idempotents are the primitive summands, and each comes with the
inclusion/projection witnesses ((X, e_i) -> (X, e) is e_i in both
directions), so multiplicity claims stay matrix-checkable.

Functors lift pointwise: F(X, e) = (F X, F e).  The right adjoint into
the base category is materialized as an honest module, the image of the
idempotent block matrix T(e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .algebra import Algebra, algebra_on_span, primitive_orthogonal_idempotents
from .linalg import rref, solve
from .orbit import (
    GroupAction,
    OrbitMor,
    combine_orbitmors,
    functor_T,
    identity_orbitmor,
    lifted_aut,
    orbit_compose,
    orbit_hom,
    sub_inclusion_S,
    sub_restriction_T,
    unflatten_orbitmor,
)
from .rep import Module, ModuleMor, submodule_from_image


class KarObject:
    """A pair (X, e): base object plus an idempotent orbit endomorphism."""

    def __init__(self, action: GroupAction, module: Module, idem: OrbitMor = None,
                 support=None, validate: bool = True):
        self.action = action
        self.module = module
        self.support = tuple(support) if support is not None else action.full_support()
        if idem is None:
            idem = identity_orbitmor(module, action, self.support)
        self.idem = idem
        if idem.support != self.support:
            raise ValueError("idempotent support does not match the object")
        if validate:
            if orbit_compose(idem, idem) != idem:
                raise ValueError("the given endomorphism is not idempotent")

    def __eq__(self, other):
        return (
            isinstance(other, KarObject)
            and self.module == other.module
            and self.idem == other.idem
        )

    def __repr__(self):
        return f"KarObject(dim={self.module.dim}, support={self.support})"


@dataclass
class KarMor:
    src: KarObject
    tgt: KarObject
    mor: OrbitMor

    def validate(self):
        compressed = orbit_compose(orbit_compose(self.src.idem, self.mor), self.tgt.idem)
        if compressed != self.mor:
            raise ValueError("morphism is not compatible with the idempotents")
        return self

    def __eq__(self, other):
        return (
            isinstance(other, KarMor)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.mor == other.mor
        )


def kar_hom(P: KarObject, Q: KarObject) -> List[KarMor]:
    """Echelonized basis of the compressed hom space f o Hom o e."""
    if P.action is not Q.action or P.support != Q.support:
        raise ValueError("objects live over different orbit categories")
    F = P.action.algebra.field
    raw = orbit_hom(P.module, Q.module, P.action, support=P.support).basis()
    if not raw:
        return []
    rows = []
    for b in raw:
        c = orbit_compose(orbit_compose(P.idem, b), Q.idem)
        rows.append(c.flatten())
    rows = np.stack(rows)
    out = []
    for v in rref(F, rows)[0]:
        mor = unflatten_orbitmor(P.action, P.module, Q.module, P.support, v)
        out.append(KarMor(P, Q, mor))
    return out


def kar_end_algebra(P: KarObject) -> Tuple[Algebra, List[OrbitMor]]:
    """The corner algebra e o End(X) o e with unit e."""
    F = P.action.algebra.field
    basis_mors = [km.mor for km in kar_hom(P, P)]
    # product b_i * b_j = composition "b_j first, then b_i"
    products = ([orbit_compose(b, a).flatten() for b in basis_mors] for a in basis_mors)
    E = algebra_on_span(F, [m.flatten() for m in basis_mors], products, P.idem.flatten())
    return E, basis_mors


def kar_decompose(P: KarObject) -> List[KarObject]:
    """Primitive orthogonal summands of (X, e), one KarObject per
    idempotent; they sum to e exactly and each corner is local."""
    E, basis_mors = kar_end_algebra(P)
    if E.dim == 0:
        return []
    es = primitive_orthogonal_idempotents(E)
    out = []
    total = None
    for evec in es:
        mor = combine_orbitmors(basis_mors, evec)
        if orbit_compose(mor, mor) != mor:
            raise ValueError("abstract idempotent did not map to an orbit idempotent")
        out.append(KarObject(P.action, P.module, mor, P.support, validate=False))
        total = mor if total is None else total.add(mor)
    if total != P.idem:
        raise ValueError("primitive summands do not sum to the object idempotent")
    for a in range(len(out)):
        for b in range(len(out)):
            if a != b:
                prod = orbit_compose(out[a].idem, out[b].idem)
                if not prod.is_zero():
                    raise ValueError("primitive summands are not orthogonal")
    return out


def kar_is_isomorphic(P: KarObject, Q: KarObject):
    """(alpha, beta) with beta o alpha = e_P and alpha o beta = e_Q, or None.

    For primitive objects a basis scan of the compressed hom space is
    conclusive (the non-isomorphisms form a proper subspace of the local
    corner bimodule); for general objects both sides are decomposed and
    matched class by class."""
    F = P.action.algebra.field
    HPQ = kar_hom(P, Q)
    HQP = kar_hom(Q, P)
    if not HPQ or not HQP:
        return None
    pair = None
    for km in HPQ:
        alpha = km.mor
        # solve beta (a combination of HQP) with beta o alpha = e_P
        images = [orbit_compose(alpha, m.mor).flatten() for m in HQP]
        Asys = np.stack(images).T
        sol = solve(F, Asys, P.idem.flatten())
        if sol is None:
            continue
        beta = combine_orbitmors([m.mor for m in HQP], sol)
        if orbit_compose(beta, alpha) == Q.idem:
            pair = (alpha, beta)
            break
    if pair is not None:
        return pair
    # general objects: decompose and match class by class
    DP = kar_decompose(P)
    if len(DP) <= 1:
        return None  # P primitive: the basis scan was conclusive
    DQ = kar_decompose(Q)
    if len(DP) != len(DQ):
        return None
    used = [False] * len(DQ)
    alphas = []
    betas = []
    for p in DP:
        hit = None
        for j, q in enumerate(DQ):
            if used[j]:
                continue
            sub = kar_is_isomorphic(p, q)
            if sub is not None:
                hit = (j, sub)
                break
        if hit is None:
            return None
        used[hit[0]] = True
        a, b = hit[1]
        alphas.append(a)
        betas.append(b)
    alpha = alphas[0]
    for a in alphas[1:]:
        alpha = alpha.add(a)
    beta = betas[0]
    for b in betas[1:]:
        beta = beta.add(b)
    if orbit_compose(alpha, beta) == P.idem and orbit_compose(beta, alpha) == Q.idem:
        return (alpha, beta)
    return None


def kar_summand_witnesses(P: KarObject, piece: KarObject):
    """Inclusion and projection between (X, e_i) and (X, e): both are e_i."""
    inc = KarMor(piece, P, piece.idem)
    pr = KarMor(P, piece, piece.idem)
    return inc, pr


def lift_functor_to_kar(functor: str, obj, action: GroupAction, **kw):
    """Apply a lifted functor to a completed object or morphism.

    functor is one of 'sub_inclusion_S', 'sub_restriction_T', 'lifted_aut',
    'functor_T'.  Objects map to (F X, F e); 'functor_T' materializes the
    result as an honest module, the image of the block matrix T(e), and
    returns (module, inclusion, projection)."""
    if functor == "sub_inclusion_S":
        sub = action.subgroup(kw["sub"])
        if isinstance(obj, KarObject):
            e = sub_inclusion_S(obj.idem, action, sub)
            return KarObject(action, obj.module, e, None, validate=False)
        if isinstance(obj, KarMor):
            src = lift_functor_to_kar("sub_inclusion_S", obj.src, action, **kw)
            tgt = lift_functor_to_kar("sub_inclusion_S", obj.tgt, action, **kw)
            return KarMor(src, tgt, sub_inclusion_S(obj.mor, action, sub))
    elif functor == "lifted_aut":
        g = kw["g"]
        if isinstance(obj, KarObject):
            e = lifted_aut(g, obj.idem, action, support=obj.support)
            return KarObject(action, lifted_aut(g, obj.module, action), e,
                             obj.support, validate=False)
        if isinstance(obj, KarMor):
            src = lift_functor_to_kar("lifted_aut", obj.src, action, **kw)
            tgt = lift_functor_to_kar("lifted_aut", obj.tgt, action, **kw)
            return KarMor(src, tgt, lifted_aut(g, obj.mor, action, support=obj.mor.support))
    elif functor == "sub_restriction_T":
        sub = action.subgroup(kw["sub"])
        if isinstance(obj, KarObject):
            if obj.support != action.full_support():
                raise ValueError("restriction expects an object over the full group")
            e = sub_restriction_T(obj.idem, action, sub)
            return KarObject(action, sub_restriction_T(obj.module, action, sub), e,
                             sub, validate=False)
        if isinstance(obj, KarMor):
            src = lift_functor_to_kar("sub_restriction_T", obj.src, action, **kw)
            tgt = lift_functor_to_kar("sub_restriction_T", obj.tgt, action, **kw)
            return KarMor(src, tgt, sub_restriction_T(obj.mor, action, sub))
    elif functor == "functor_T":
        if isinstance(obj, KarObject):
            Te = functor_T(obj.idem, action, support=obj.support)
            W, inc, pr = submodule_from_image(Te.src, Te.matrix)
            return W, ModuleMor(W, Te.src, inc), ModuleMor(Te.src, W, pr)
    raise TypeError(f"unsupported functor lift: {functor}")
