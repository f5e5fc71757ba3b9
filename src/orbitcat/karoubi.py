"""Idempotent completion of the orbit category.

Objects are pairs (X, e) with e an orbit-morphism idempotent; the hom
space between (X, e) and (Y, f) is the compression f o Hom(X, Y) o e, so
the identity of (X, e) is e itself.  Decomposition of a completed object
goes through the corner algebra e o End(X) o e: its primitive orthogonal
idempotents are the primitive summands, and each comes with the
inclusion/projection witnesses ((X, e_i) -> (X, e) is e_i in both
directions), so multiplicity claims stay matrix-checkable.

Each per-basis step is one composition of orbit morphism families: the
compressed hom basis is e_Q o raw o e_P for the whole raw hom family, the
corner's products are one broadcast composition of its basis with itself,
and the summand checks compose all pairs of idempotents at once.

Functors lift pointwise: F(X, e) = (F X, F e).  The right adjoint into
the base category is materialized as an honest module, the image of the
idempotent block matrix T(e) (kar_functor_T).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .algebra import Algebra, IdempotentSet, algebra_on_span
from .linalg import rref, solve
from .orbit import (
    GroupAction,
    OrbitMor,
    functor_T,
    identity_orbitmor,
    orbit_compose,
    orbit_hom,
)
from .rep import Module, submodule_from_image


class KarObject:
    """A pair (X, e): base object plus an idempotent orbit endomorphism.

    e is taken as given: the default identity needs no check, and
    kar_decompose certifies the idempotents it builds."""

    def __init__(self, action: GroupAction, module: Module, idem: OrbitMor = None,
                 support=None):
        self.action = action
        self.module = module
        self.support = tuple(support) if support is not None else action.full_support()
        if idem is None:
            idem = identity_orbitmor(module, action, self.support)
        self.idem = idem
        if idem.support != self.support:
            raise ValueError("idempotent support does not match the object")

    def __eq__(self, other):
        return (
            isinstance(other, KarObject)
            and self.module == other.module
            and self.idem == other.idem
        )

    def __repr__(self):
        return f"KarObject(dim={self.module.dim}, support={self.support})"


def _kar_basis(P: KarObject, Q: KarObject) -> OrbitMor:
    """Echelonized basis of the compressed hom space e_Q o Hom o e_P, as
    one family: the raw hom family compressed in two compositions."""
    if P.action is not Q.action or P.support != Q.support:
        raise ValueError("objects live over different orbit categories")
    raw = orbit_hom(P.module, Q.module, P.action, support=P.support).family()
    rows = rref(P.action.algebra.field,
                orbit_compose(orbit_compose(P.idem, raw), Q.idem).flatten())[0]
    return raw.with_stack(rows.reshape((len(rows),) + raw.stack.shape[1:]))


def kar_end_algebra(P: KarObject) -> Tuple[Algebra, OrbitMor]:
    """The corner algebra e o End(X) o e with unit e, and its basis family."""
    H = _kar_basis(P, P)
    # products[i, j] = b_i * b_j, the composition "b_j first, then b_i"
    products = orbit_compose(H.with_stack(H.stack[None]), H.with_stack(H.stack[:, None]))
    E = algebra_on_span(P.action.algebra.field, H.flatten(), products.flatten(),
                        P.idem.flatten())
    return E, H


def kar_decompose(P: KarObject, H: OrbitMor, es: IdempotentSet) -> List[KarObject]:
    """Primitive orthogonal summands of (X, e), one KarObject per
    idempotent; they sum to e exactly and each corner is local.  H is the
    basis family of kar_end_algebra(P) = (E, H), and es is
    primitive_orthogonal_idempotents(E), whose labels group the summands
    into isomorphism classes."""
    if len(es) == 0:
        return []
    F = P.action.algebra.field
    es = H.with_stack(F.combine(list(es), H.stack))
    # prods[a, b] = e_b o e_a: e_a on the diagonal, zero off it
    prods = orbit_compose(es.with_stack(es.stack[:, None]), es.with_stack(es.stack[None])).stack
    r = len(es.stack)
    if not np.array_equal(prods[np.arange(r), np.arange(r)], es.stack):
        raise ValueError("abstract idempotent did not map to an orbit idempotent")
    if prods[~np.eye(r, dtype=bool)].any():
        raise ValueError("primitive summands are not orthogonal")
    if not np.array_equal(F.vsum(es.stack, axis=0), P.idem.stack):
        raise ValueError("primitive summands do not sum to the object idempotent")
    return [KarObject(P.action, P.module, es.with_stack(e), P.support)
            for e in es.stack]


def kar_is_isomorphic(P: KarObject, Q: KarObject):
    """(alpha, beta) with beta o alpha = e_P and alpha o beta = e_Q, or None.

    A basis scan of the compressed hom space.  It is conclusive when P is
    primitive, as every summand kar_decompose returns is (the
    non-isomorphisms form a proper subspace of the local corner bimodule);
    for other P a None may miss an isomorphism.

    Summands of one object need no scan: (X, e) and (X, f) for primitive
    idempotents e, f of E = End(X) are isomorphic iff eE and fE are, which
    primitive_orthogonal_idempotents decides from the blocks of E/J (see
    its labels).  This scan is for objects of different corners, such as
    clifford_run's outside checks."""
    F = P.action.algebra.field
    HPQ = _kar_basis(P, Q)
    HQP = _kar_basis(Q, P)
    if not len(HPQ.stack) or not len(HQP.stack):
        return None
    # systems[i, j] = b_j o alpha_i for alpha_i in HPQ and b_j in HQP: row i
    # solves for beta (a combination of HQP) with beta o alpha_i = e_P
    systems = orbit_compose(HPQ.with_stack(HPQ.stack[:, None]),
                            HQP.with_stack(HQP.stack[None])).flatten()
    for a, images in zip(HPQ.stack, systems):
        sol = solve(F, images.T, P.idem.flatten())
        if sol is None:
            continue
        alpha = HPQ.with_stack(a)
        beta = HQP.with_stack(F.combine(sol, HQP.stack))
        if orbit_compose(beta, alpha) == Q.idem:
            return (alpha, beta)
    return None


def kar_functor_T(P: KarObject) -> Module:
    """T(X, e) in the base category: the image of the block matrix T(e)."""
    Te = functor_T(P.idem, P.action, support=P.support)
    return submodule_from_image(Te.src, Te.matrix)[0]
