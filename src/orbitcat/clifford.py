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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import is_local, primitive_orthogonal_idempotents, radical
from .karoubi import (
    KarObject,
    kar_decompose,
    kar_end_algebra,
    kar_functor_T,
    kar_is_isomorphic,
)
from .linalg import rank
from .orbit import GroupAction, lifted_aut, orbit_hom, sub_inclusion_S
from .rep import Module, decompose, end_algebra, hom_space, is_isomorphic


@dataclass
class InertiaData:
    module: Module
    subgroup: Tuple[int, ...]
    witnesses: Dict[int, np.ndarray]  # g -> invertible intertwiner twist(M,g) -> M


def inertia(M: Module, action: GroupAction) -> InertiaData:
    """The subgroup of elements fixing the isomorphism class of M.

    M must be indecomposable (checked through a full decomposition)."""
    dec = decompose(M, certify=False)
    if len(dec.summands) != 1 or dec.summands[0].multiplicity != 1:
        raise ValueError("decompose first: the module is not indecomposable")
    members = []
    witnesses = {}
    for g in action.elements():
        tw = action.twisted(M, g)
        iso = is_isomorphic(tw, M)
        if iso is not None:
            members.append(g)
            witnesses[g] = iso
    subgroup = action.subgroup(members)  # closure holds; this certifies it
    return InertiaData(M, subgroup, witnesses)


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
    oracle: Optional[dict] = None
    module: Optional[Module] = None  # the pipeline input, for oracle reruns

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
            "stage1": [
                {
                    "index": s.index,
                    "multiplicity": s.multiplicity,
                    "n_copies": s.n_copies,
                    "corner_dim": s.corner_dim,
                    "restricted_dim": s.restricted_dim,
                }
                for s in self.stage1
            ],
            "stage2": [
                {
                    "index": s.index,
                    "corner_dim": s.corner_dim,
                    "corner_radical_dim": s.corner_radical_dim,
                    "local": s.local,
                    "materialized_dim": s.materialized_dim,
                }
                for s in self.stage2
            ],
            "sum_n_equals_inertia": self.sum_n_equals_inertia,
            "outside_checks": self.outside_checks,
            "oracle": self.oracle,
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
    kar_is_isomorphic."""
    ind = inertia(M, action)
    sub = ind.subgroup
    P = KarObject(action, M, support=sub)
    E_P, H_P = kar_end_algebra(P)
    es = primitive_orthogonal_idempotents(E_P)
    pieces = kar_decompose(P, H_P, es)
    reps = [pieces[es.labels.index(c)] for c in range(max(es.labels) + 1)]
    stage1 = []
    corners = []
    total_n = 0
    for idx, rep_piece in enumerate(reps):
        W = kar_functor_T(rep_piece)
        dec = decompose(W, certify=False)
        n_copies = 0
        for s in dec.summands:
            if is_isomorphic(s.module, M) is None:
                raise CliffordViolation(
                    f"restriction of summand {idx} contains a non-copy of M "
                    f"(dimension {s.module.dim})"
                )
            n_copies += s.multiplicity
        # a single piece has the idempotent of P, so its corner is P's
        corners.append(E_P if len(es) == 1 else kar_end_algebra(rep_piece)[0])
        stage1.append(
            StageOneSummand(
                index=idx,
                multiplicity=es.labels.count(idx),
                n_copies=n_copies,
                corner_dim=corners[-1].dim,
                restricted_dim=W.dim,
            )
        )
        total_n += n_copies * es.labels.count(idx)
    sum_ok = total_n == len(sub)
    if not sum_ok:
        raise CliffordViolation(
            f"sum of copy counts {total_n} differs from the inertia order {len(sub)}"
        )
    stage2 = []
    for idx, rep_piece in enumerate(reps):
        if len(sub) == action.k:
            # extension by zero from the whole group changes nothing
            ext, E = rep_piece, corners[idx]
        else:
            ext = KarObject(action, rep_piece.module, sub_inclusion_S(rep_piece.idem, action, sub))
            E, _ = kar_end_algebra(ext)
        J = radical(E)
        local = is_local(E, J)
        stage2.append(
            StageTwoSummand(
                index=idx,
                corner_dim=E.dim,
                corner_radical_dim=len(J),
                local=local,
                materialized_dim=kar_functor_T(ext).dim,
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
        for idx, rep_piece in enumerate(reps):
            image = KarObject(action, lifted_aut(g, rep_piece.module, action),
                              lifted_aut(g, rep_piece.idem, action, support=sub), sub)
            distinct = kar_is_isomorphic(rep_piece, image) is None
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
    P = KarObject(action, W)
    E, _ = kar_end_algebra(P)
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
    J = radical(E)
    if len(J) != 0 or not is_local(E, J):
        return False
    image_dim = rank(M.field, np.stack(M.mats).reshape(len(M.mats), -1))
    return image_dim * E.dim == M.dim ** 2


def skewfield_check(action: GroupAction, M: Module) -> dict:
    """For a simple module not fixed by any nontrivial twist, the orbit
    endomorphism ring collapses to the plain one and is a (skew) field."""
    if not is_simple(M):
        raise ValueError("module is not simple")
    for g in action.elements():
        if g == 0:
            continue
        if is_isomorphic(action.twisted(M, g), M) is not None:
            raise ValueError(f"twist by {g} fixes the module; inertia not trivial")
    end_dim = hom_space(M, M).dim
    oh = orbit_hom(M, M, action)
    if oh.dim != end_dim:
        raise CliffordViolation(
            f"orbit endomorphism dimension {oh.dim} exceeds the plain one {end_dim}"
        )
    P = KarObject(action, M)
    E, _ = kar_end_algebra(P)
    J = radical(E)
    if len(J) != 0 or not is_local(E, J):
        raise CliffordViolation("orbit endomorphism algebra is not a field")
    return {"ok": True, "end_dim": end_dim}
