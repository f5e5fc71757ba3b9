"""Inertia groups and the decomposition pipeline for induced objects.

Given an indecomposable module M and a strict group action, the inertia
subgroup collects the elements whose twist fixes the isomorphism class of
M.  The pipeline then decomposes (M, id) in the completed orbit category
over the inertia subgroup, counts for each primitive summand how many
copies of M its restriction materializes (the numbers n_j, which must sum
to the inertia order), extends each summand by zero to the full group and
certifies that the extension is indecomposable by checking its corner
algebra is local.  Every number in the report is recomputable from matrix
ranks of explicit witnesses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from .algebra import (
    _iso_classes,
    corner_algebra,
    is_local,
    primitive_orthogonal_idempotents,
    radical,
)
from .karoubi import (
    KarObject,
    kar_decompose,
    kar_end_algebra,
    kar_functor_T,
    kar_is_isomorphic,
)
from .linalg import SpanSolver, is_invertible, rank
from .orbit import GroupAction, OrbitHomSpace, lifted_aut, sub_inclusion_S
from .rep import HomSpace, Module, decompose, end_algebra, hom_space, is_isomorphic


@dataclass
class InertiaData:
    """The inertia subgroup of an indecomposable M, with the raw hom family
    it is read from: raw = Hom_orbit(M, M) over the whole group, component
    g the echelonized Hom(M, gM) as hom_space returns it, and for each g
    in the subgroup an invertible intertwiner witnesses[g]: twist(M, g) -> M.

    Every raw hom of a Clifford run is a sub-sum of raw (an orbit hom is a
    sum of twisted homs), so hom_over reads it with no hom solve."""

    module: Module
    action: GroupAction
    subgroup: Tuple[int, ...]
    witnesses: Dict[int, np.ndarray]  # g -> invertible intertwiner twist(M,g) -> M
    raw: OrbitHomSpace

    def hom_over(self, src: Module, tgt: Module, shift) -> OrbitHomSpace:
        """Hom_orbit(src, tgt) over the inertia for twists src and tgt of M,
        component h read off raw component shift(h).  A strict twist keeps a
        morphism's matrix, so for g outside the inertia:
        - Hom(M, h gM) is Hom(M, (hg)M): shift h -> hg for (M, gM);
        - Hom(gM, hM) is Hom(M, (g^-1 h)M): shift h -> g^-1 h for (gM, M).
        The spaces are equal, and so are their reduced echelon bases."""
        twisted = self.action.twisted
        comps = {h: HomSpace(src, twisted(tgt, h), self.raw.components[shift(h)].basis)
                 for h in self.subgroup}
        return OrbitHomSpace(src, tgt, self.subgroup, comps, self.action)


def inertia(M: Module, action: GroupAction) -> InertiaData:
    """The subgroup of elements fixing the isomorphism class of M.

    M must be indecomposable: End(M) is solved once and must be local,
    that is, have exactly one primitive idempotent.  Hom(M, gM) is
    solved once per distinct twist gM, End(M) included (a strict action has
    aut_0 = id, so twist(M, 0) is M).  Hom(gM, M) and Hom(M, g^-1 M) are
    the same matrices, so the witness for g is the first invertible element
    of raw component g^-1, the one is_isomorphic(twist(M, g), M) returns:
    End(M) is local, so the scan is conclusive."""
    E, basis = end_algebra(M)
    if not is_local(E):
        raise ValueError("decompose first: the module is not indecomposable")
    return _inertia_of(M, action, basis)


def _inertia_of(M: Module, action: GroupAction, end_basis) -> InertiaData:
    """inertia(M, action) for an M already known to be indecomposable, with
    end_basis the echelonized End(M) that hom_space(M, M) returns."""
    F = M.field
    solved = {M: end_basis}
    comps = {}
    for g in action.elements():
        tw = action.twisted(M, g)
        if tw not in solved:
            solved[tw] = hom_space(M, tw).basis
        comps[g] = HomSpace(M, tw, solved[tw])
    witnesses = {}
    for g in action.elements():
        iso = next((f for f in comps[action.inv(g)].basis if is_invertible(F, f)), None)
        if iso is not None:
            witnesses[g] = iso
    subgroup = action.subgroup(witnesses)  # closure holds; this certifies it
    raw = OrbitHomSpace(M, M, action.full_support(), comps, action)
    return InertiaData(M, action, subgroup, witnesses, raw)


@dataclass
class StageOneSummand:
    index: int
    multiplicity: int
    n_copies: int
    corner_dim: int
    restricted_dim: int


@dataclass
class StageTwoSummand:
    index: int
    corner_dim: int
    corner_radical_dim: int
    local: bool
    materialized_dim: int


@dataclass
class CliffordReport:
    module_dim: int
    group_order: int
    inertia_subgroup: Tuple[int, ...]
    orbit_end_dim: int
    stage1: List[StageOneSummand]
    stage2: List[StageTwoSummand]
    sum_n_equals_inertia: bool
    outside_checks: List[dict]
    module: Module  # the pipeline input, for oracle reruns

    def signature(self):
        """Dimension-aggregated multiset of stage-2 materialized summands."""
        agg = {}
        for s1, s2 in zip(self.stage1, self.stage2):
            agg[s2.materialized_dim] = agg.get(s2.materialized_dim, 0) + s1.multiplicity
        return sorted(agg.items())

    def to_dict(self):
        return {
            "module_dim": self.module_dim,
            "group_order": self.group_order,
            "inertia_subgroup": list(self.inertia_subgroup),
            "orbit_end_dim": self.orbit_end_dim,
            "summands": sum(s.multiplicity for s in self.stage1),
            "stage1": [asdict(s) for s in self.stage1],
            "stage2": [asdict(s) for s in self.stage2],
            "sum_n_equals_inertia": self.sum_n_equals_inertia,
            "outside_checks": self.outside_checks,
            "oracle": None,  # the comparison is the oracle_compare task's result
        }


class CliffordViolation(RuntimeError):
    """A certificate of the pipeline failed; carries the counterexample."""


def clifford_run(action: GroupAction, M: Module) -> CliffordReport:
    """Run the full decomposition pipeline on an indecomposable module.

    Stage 1 groups the primitive summands of P = (M, id) over the inertia
    subgroup into isomorphism classes with no hom solve: the summands are
    (M, e) for the primitive idempotents e of E_P = End(P), and (M, e) is
    isomorphic to (M, f) iff eE_P is isomorphic to fE_P, which
    primitive_orthogonal_idempotents decides, certified, from the blocks
    of E_P / rad E_P (its labels; classes in order of first appearance).
    The outside checks compare summands with their images under elements
    outside the inertia, objects of different corners, by
    kar_is_isomorphic over Hom_orbit(M, gM) and Hom_orbit(gM, M).

    Each hom space and each corner is built once per run:
    - Every raw hom is read off the family Hom(M, gM) that inertia solves
      once per distinct twist (InertiaData.hom_over): E_P over the
      inertia, E_G over the whole group, and the outside checks' homs
      once per outside g.
    - A class's corner is e E_P e for its first idempotent e, by
      corner_algebra.  E_P's basis (the compressed family H_P) maps
      e E_P e onto e o Hom_orbit(M, M) o e = End((M, e)) and keeps
      products and the unit, so the two are isomorphic algebras.  The
      report reads only invariants of the isomorphism class: dimension,
      radical dimension and locality.
    - A restriction W or a summand of it with M's matrices is M, so it
      needs no decompose and no hom solve to count as copies of M.

    Stage 2 reads one algebra, E_G = End((M, id)) over the whole group.
    When the inertia is the whole group, E_G is E_P, extension by zero
    changes nothing, and stage 2 reads stage 1's corners and T-objects.
    Otherwise E_G is built once, and each idempotent e of E_P extends by
    zero (sub_inclusion_S) to e~ in E_G, with coordinates from one solve
    against E_G's basis (which raises if an e~ leaves it).  This is exact:
    - The inertia is closed under products, so extension by zero is an
      injective map E_P -> E_G that keeps composition: each e~ is an
      idempotent of E_G.
    - kar_end_algebra((M, e~)) is isomorphic to corner_algebra(E_G, e~)
      (see kar_end_algebra), so a corner's locality certifies (M, e~)
      indecomposable.
    - With two or more idempotents, the classes of the e~ that
      _iso_classes reads off E_G / rad E_G must be stage 1's labels, or
      CliffordViolation names both lists: classes stay distinct over the
      whole group, and multiplicities carry over."""
    F = M.field
    ind = inertia(M, action)
    sub = ind.subgroup
    P = KarObject(action, M, support=sub)
    E_P, H_P = kar_end_algebra(P, ind.hom_over(M, M, lambda h: h))
    es = primitive_orthogonal_idempotents(E_P)
    pieces = kar_decompose(P, H_P, es)
    firsts = [es.labels.index(c) for c in range(max(es.labels) + 1)]
    reps = [pieces[i] for i in firsts]

    def class_corners(E, idems):
        # e E e for each class's first idempotent e; a lone one is the unit
        return [E] if len(es) == 1 else [corner_algebra(E, idems[i])[0] for i in firsts]

    corners = class_corners(E_P, es.idempotents)
    stage1 = []
    total_n = 0
    for idx, rep_piece in enumerate(reps):
        W = kar_functor_T(rep_piece)
        # a module with M's matrices is M: W is then one copy (M is
        # indecomposable), and a summand is a copy with no hom solve
        summands = ([(W, 1)] if W == M else
                    [(s.module, s.multiplicity) for s in decompose(W, certify=False).summands])
        n_copies = 0
        for S, multiplicity in summands:
            if S != M and is_isomorphic(S, M) is None:
                raise CliffordViolation(
                    f"restriction of summand {idx} contains a non-copy of M "
                    f"(dimension {S.dim})"
                )
            n_copies += multiplicity
        stage1.append(
            StageOneSummand(
                index=idx,
                multiplicity=es.labels.count(idx),
                n_copies=n_copies,
                corner_dim=corners[idx].dim,
                restricted_dim=W.dim,
            )
        )
        total_n += n_copies * es.labels.count(idx)
    sum_ok = total_n == len(sub)
    if not sum_ok:
        raise CliffordViolation(
            f"sum of copy counts {total_n} differs from the inertia order {len(sub)}"
        )
    if len(sub) == action.k:
        # extension by zero from the whole group changes nothing
        stage2_corners, materialized = corners, [s.restricted_dim for s in stage1]
    else:
        E_G, H_G = kar_end_algebra(KarObject(action, M), ind.raw)
        ext = [sub_inclusion_S(p.idem, action, sub) for p in pieces]
        ext_es = SpanSolver(F, H_G.flatten()).batch_coords(np.stack([e.flatten() for e in ext]))
        if len(es) > 1:
            labels, _ = _iso_classes(E_G, ext_es, SpanSolver(F, radical(E_G)))
            if labels != es.labels:
                raise CliffordViolation(
                    f"extension by zero changes the isomorphism classes: labels "
                    f"{es.labels} over the inertia, {labels} over the whole group"
                )
        stage2_corners = class_corners(E_G, ext_es)
        materialized = [kar_functor_T(KarObject(action, M, ext[i])).dim for i in firsts]
    stage2 = []
    for idx, E in enumerate(stage2_corners):
        J = radical(E)
        local = is_local(E, J)
        stage2.append(
            StageTwoSummand(
                index=idx,
                corner_dim=E.dim,
                corner_radical_dim=len(J),
                local=local,
                materialized_dim=materialized[idx],
            )
        )
        if not local:
            raise CliffordViolation(
                f"stage-2 summand {idx} has a non-local corner algebra "
                f"(dim {E.dim}, radical dim {len(J)})"
            )
    outside = []
    sset = set(sub)
    for g in action.elements():
        if g in sset:
            continue
        normalizes = all(
            action.mul(action.mul(g, k), action.inv(g)) in sset for k in sub
        )
        if not normalizes:
            outside.append({"g": g, "checked": False, "reason": "not normalizing"})
            continue
        gM, ginv = lifted_aut(g, M, action), action.inv(g)
        raw_to = ind.hom_over(M, gM, lambda h: action.mul(h, g))
        raw_from = ind.hom_over(gM, M, lambda h: action.mul(ginv, h))
        for idx, rep_piece in enumerate(reps):
            image = KarObject(action, gM, lifted_aut(g, rep_piece.idem, action, support=sub), sub)
            distinct = kar_is_isomorphic(rep_piece, image, raw_to, raw_from) is None
            outside.append({"g": g, "class": idx, "checked": True, "distinct": distinct})
            if not distinct:
                raise CliffordViolation(
                    f"summand {idx} is fixed by the outside element {g}"
                )
    return CliffordReport(
        module_dim=M.dim,
        group_order=action.k,
        inertia_subgroup=sub,
        orbit_end_dim=E_P.dim,
        stage1=stage1,
        stage2=stage2,
        sum_n_equals_inertia=sum_ok,
        outside_checks=outside,
        module=M,
    )


def trivial_inertia_check(action: GroupAction, W: Module) -> dict:
    """For an indecomposable with trivial inertia, certify that its image
    in the completed orbit category stays indecomposable."""
    ind = inertia(W, action)
    if ind.subgroup != (0,):
        raise ValueError("inertia not trivial")
    E, _ = kar_end_algebra(KarObject(action, W), ind.raw)
    if not is_local(E):
        es = primitive_orthogonal_idempotents(E)
        witness = [list(map(int, e)) for e in es][:2]
        raise CliffordViolation(
            f"orbit endomorphism algebra is not local; idempotent witness {witness}"
        )
    return {"ok": True, "end_dim": E.dim}


def is_simple(M: Module) -> bool:
    """Density criterion: M is simple iff D = End_A(M) is a division ring
    and dim span{rho(b_i)} * dim D = m^2, i.e. A acts as all of End_D(M)."""
    if M.dim == 0:
        return False
    E, _ = end_algebra(M)
    return _is_simple_over(M, E)


def _is_simple_over(M: Module, E) -> bool:
    """is_simple(M) for a nonzero M, with E the End(M) that end_algebra(M)
    returns."""
    J = radical(E)
    if len(J) != 0 or not is_local(E, J):
        return False
    image_dim = rank(M.field, M.mats.reshape(len(M.mats), -1))
    return image_dim * E.dim == M.dim ** 2


def skewfield_check(action: GroupAction, M: Module) -> dict:
    """For a simple module not fixed by any nontrivial twist, the orbit
    endomorphism ring collapses to the plain one and is a (skew) field.
    End(M) is solved once: the simplicity test and the inertia read it, and
    a simple M is indecomposable, as inertia requires."""
    if M.dim == 0:
        raise ValueError("module is not simple")
    E, basis = end_algebra(M)
    if not _is_simple_over(M, E):
        raise ValueError("module is not simple")
    ind = _inertia_of(M, action, basis)
    if len(ind.subgroup) > 1:
        raise ValueError(f"twist by {ind.subgroup[1]} fixes the module; inertia not trivial")
    end_dim = ind.raw.components[0].dim
    if ind.raw.dim != end_dim:
        raise CliffordViolation(
            f"orbit endomorphism dimension {ind.raw.dim} exceeds the plain one {end_dim}"
        )
    E, _ = kar_end_algebra(KarObject(action, M), ind.raw)
    J = radical(E)
    if len(J) != 0 or not is_local(E, J):
        raise CliffordViolation("orbit endomorphism algebra is not a field")
    return {"ok": True, "end_dim": end_dim}
