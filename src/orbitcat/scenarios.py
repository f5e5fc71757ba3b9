"""Named groups, actions, algebras and sampling helpers.

Everything the CLI can build lives here, plus the randomized-but-seeded
corpus generators used by the law suites: pools of indecomposables per
algebra, random modules assembled from a pool with a random base change,
and random orbit morphisms drawn from hom-space bases.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    Algebra,
    AlgebraAut,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    radical,
)
from .ffield import FF, FiniteField
from .linalg import inverse
from .oracle import frobenius_action
from .orbit import GroupAction, OrbitMor, combine_orbitmors, make_skew_group_algebra
from .rep import (
    Module,
    decompose,
    direct_sum,
    is_isomorphic,
    quotient_module,
    random_base_change,
    regular_module,
    simple_modules,
    submodule_span,
)

GROUP_TABLES: Dict[str, list] = {
    "C1": [[0]],
    "C2": [[0, 1], [1, 0]],
    "C3": [[(i + j) % 3 for j in range(3)] for i in range(3)],
    "C4": [[(i + j) % 4 for j in range(4)] for i in range(4)],
    "C2xC2": [[i ^ j for j in range(4)] for i in range(4)],
}


def s3_table() -> list:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    idx = {p: i for i, p in enumerate(perms)}
    return [
        [idx[tuple(p[q[t]] for t in range(3))] for q in perms] for p in perms
    ]


GROUP_TABLES["S3"] = s3_table()


def group_table(name_or_table, name: str = "group"):
    """A named group's table, or an explicit table whose entries are
    integers in range(its order), checked by ``_checked_ints``."""
    if isinstance(name_or_table, str):
        if name_or_table not in GROUP_TABLES:
            raise ValueError(f"unknown group name {name_or_table!r}")
        return GROUP_TABLES[name_or_table]
    return _checked_ints(name_or_table, name, 0, len(name_or_table), "the group order")


# ---------------------------------------------------------------------------
# named automorphisms and actions
#
# The automorphism builders do not validate: the GroupAction that takes
# them validates each one once (check_action).


def inversion_permutation_aut(A: Algebra) -> AlgebraAut:
    """g -> g^{-1} on a group algebra (an automorphism when abelian).

    The group table is read back off the permutation structure constants."""
    k = A.dim
    identity = None
    for e in range(k):
        if A.unit[e] == 1:
            identity = e
    if identity is None:
        raise ValueError("inversion action expects a group algebra")
    U = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        prods = A.struct[i, :, identity]  # coefficient of the identity in g_i g_j
        js = np.nonzero(prods)[0]
        if len(js) != 1:
            raise ValueError("inversion action expects a group algebra")
        U[js[0], i] = 1
    return AlgebraAut(A, U, validate=False)


def conjugation_aut(A: Algebra, unit_matrix, name: str = "conjugation matrix") -> AlgebraAut:
    """x -> u x u^{-1} on a matrix algebra, u given as an n x n matrix."""
    F = A.field
    n = int(round(np.sqrt(A.dim)))
    if n * n != A.dim:
        raise ValueError("conjugation action expects a matrix algebra")
    u = _checked_shape(np.asarray(unit_matrix, dtype=np.int64), (n, n), name,
                       f"the size of the matrix algebra Mat{n}")
    uinv = inverse(F, u)
    U = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j in range(A.dim):
        Ej = np.zeros((n, n), dtype=np.int64)
        Ej[j // n, j % n] = 1
        U[:, j] = F.vmatmul(F.vmatmul(u, Ej), uinv).reshape(-1)
    return AlgebraAut(A, U, validate=False)


def basis_permutation_aut(A: Algebra, perm: Sequence[int], name: str = "perm") -> AlgebraAut:
    """Automorphism permuting the basis: b_i -> b_perm[i].  ``perm`` lists
    each of range(A.dim) once, checked by ``_checked_ints``."""
    p = _checked_shape(_checked_ints(perm, name, 0, A.dim, "the algebra dimension"),
                       (A.dim,), name, "one entry per basis element of the algebra")
    if len(set(p.tolist())) != A.dim:
        raise ValueError(f"{name} {p.tolist()} must have distinct entries, "
                         f"a permutation of range({A.dim})")
    U = np.zeros((A.dim, A.dim), dtype=np.int64)
    U[p, np.arange(A.dim)] = 1
    return AlgebraAut(A, U, validate=False)


def build_action(A: Algebra, spec: dict) -> GroupAction:
    """Action from a declarative spec: group name/table plus automorphisms.

    kinds: trivial | inversion | conjugation (with 'matrix' or 'matrices')
    | basis_permutation (with 'perm' or 'perms') | explicit (with 'matrices').
    Matrix entries are field codes, checked by ``_field_codes``, and
    conjugation matrices are n x n; permutations are checked by
    ``basis_permutation_aut``."""
    F = A.field
    table = np.asarray(group_table(spec["group"], "action group"), dtype=np.int64)
    k = table.shape[0]
    kind = spec.get("kind", "trivial")
    ident = AlgebraAut(A, A.field.eye(A.dim), validate=False)
    if kind == "trivial":
        auts = [ident] * k
    elif kind == "inversion":
        gen = inversion_permutation_aut(A)
        auts = _generated_cyclic(A, table, gen)
    elif kind == "conjugation":
        if "matrices" in spec:
            auts = [conjugation_aut(A, _field_codes(F, m, f"action matrices[{i}]"),
                                    f"action matrices[{i}]")
                    for i, m in enumerate(spec["matrices"])]
        else:
            gen = conjugation_aut(A, _field_codes(F, spec["matrix"], "action matrix"),
                                  "action matrix")
            auts = _generated_cyclic(A, table, gen)
    elif kind == "basis_permutation":
        if "perms" in spec:
            auts = [basis_permutation_aut(A, p, f"action perms[{i}]")
                    for i, p in enumerate(spec["perms"])]
        else:
            gen = basis_permutation_aut(A, spec["perm"], "action perm")
            auts = _generated_cyclic(A, table, gen)
    elif kind == "explicit":
        auts = [AlgebraAut(A, _field_codes(F, m, f"action matrices[{i}]"), validate=False)
                for i, m in enumerate(spec["matrices"])]
    else:
        raise ValueError(f"unknown action kind {kind!r}")
    return GroupAction(A, table, auts)


def _generated_cyclic(A, table, gen: AlgebraAut):
    """Powers of one generator along a cyclic table (element i = gen^i)."""
    k = np.asarray(table).shape[0]
    auts = [AlgebraAut(A, A.field.eye(A.dim), validate=False)]
    cur = auts[0]
    for _ in range(1, k):
        cur = gen.compose(cur)
        auts.append(cur)
    return auts


def build_field(spec: dict) -> FiniteField:
    """F_{p^n} from {"p": p, "n": n}; n defaults to 1."""
    return FF(_checked_int(spec["p"], "field p", 2),
              _checked_int(spec.get("n", 1), "field n", 1))


def build_algebra(field: FiniteField, spec: dict) -> Algebra:
    """Algebra from a declarative spec; its numbers are checked by
    ``_checked_int``."""
    kind = spec["type"]
    if kind == "group_algebra":
        return make_group_algebra(group_table(spec["group"], "algebra group"), field)
    if kind == "matrix_algebra":
        return make_matrix_algebra(_checked_int(spec["n"], "algebra n", 1), field)
    if kind == "path_algebra":
        n = _checked_int(spec["vertices"], "algebra vertices", 1)
        arrows = [tuple(_checked_shape(_checked_ints(a, f"algebra arrows[{i}]", 0, n,
                                                     "the number of vertices"),
                                       (2,), f"algebra arrows[{i}]",
                                       "a (source, target) pair").tolist())
                  for i, a in enumerate(spec["arrows"])]
        relations = [tuple(_checked_ints(r, f"algebra relations[{i}]", 0, len(arrows),
                                         "the number of arrows").tolist())
                     for i, r in enumerate(spec.get("relations", []))]
        return make_path_algebra(field, n, arrows, relations)
    if kind == "skew_group_algebra":
        base = build_algebra(field, spec["base"])
        action = build_action(base, spec["action"])
        return make_skew_group_algebra(action)
    if kind == "twisted_group_ring":
        q = _checked_int(spec["q"], "algebra q", 2)
        if q != field.q:
            raise ValueError(f"algebra q {q} must equal the field order {field.q}")
        deg_m = _checked_int(spec["deg_m"], "algebra deg_m", 1)
        return make_skew_group_algebra(frobenius_action(
            q, deg_m, group_table(spec["group"], "algebra group"),
            _checked_ints(spec["phi"], "algebra phi", 0, deg_m, "deg_m"),
        ))
    raise ValueError(f"unknown algebra type {kind!r}")


def build_module(A: Algebra, spec: dict) -> Module:
    kind = spec["kind"]
    if kind == "explicit":
        return Module(A, [_field_codes(A.field, m, f"module matrices[{i}]")
                          for i, m in enumerate(spec["matrices"])])
    if kind == "regular":
        return regular_module(A)
    if kind == "trivial":
        # for group algebras: every group element acts by 1
        mats = [np.ones((1, 1), dtype=np.int64) for _ in range(A.dim)]
        return Module(A, mats)
    if kind == "simple":
        return _pick(simple_modules(A), spec, kind)
    if kind == "regular_summand":
        dec = decompose(regular_module(A), certify=False)
        mods = sorted(
            (s.module for s in dec.summands),
            key=lambda m: (m.dim, tuple(x.tobytes() for x in m.mats)),
        )
        return _pick(mods, spec, kind)
    raise ValueError(f"unknown module kind {kind!r}")


def _pick(mods: List[Module], spec: dict, kind: str) -> Module:
    """mods[spec["index"]] (default 0) for an integer 0 <= index < len(mods)."""
    return mods[_checked_int(spec.get("index", 0), f"{kind} module index", 0, len(mods),
                            f"the number of {kind} modules")]


def _checked_int(value, name: str, lo: int, hi: Optional[int] = None, hi_is: str = "") -> int:
    """``value`` if it is an integer, not a bool, with lo <= value (and
    value < hi when hi is given).  Anything else (a float, a string, a
    bool, a number out of range) raises a ValueError that names ``name``
    and the bound, and says what hi is when ``hi_is`` is given."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value < hi)):
        return int(value)
    bound = f"{lo} <= {name}" + ("" if hi is None else f" < {hi}")
    raise ValueError(f"{name} {value!r} must be an integer with {bound}"
                     + (f", {hi_is}" if hi_is else ""))


def _checked_ints(data, name: str, lo: int, hi: Optional[int] = None,
                  hi_is: str = "") -> np.ndarray:
    """``data`` (nested lists or an array) as an int64 array, each entry
    checked by ``_checked_int`` under its indexed name, e.g. ``name[1][0]``."""
    entries = np.asarray(data, dtype=object)
    for idx, x in np.ndenumerate(entries):
        _checked_int(x, name + "".join(f"[{k}]" for k in idx), lo, hi, hi_is)
    return entries.astype(np.int64)


def _checked_shape(arr: np.ndarray, shape: tuple, name: str, what: str) -> np.ndarray:
    """``arr`` if its shape is ``shape``; otherwise a ValueError that names
    ``name`` and says what the shape stands for."""
    if arr.shape != shape:
        raise ValueError(f"{name} of shape {arr.shape} must have shape {shape}, {what}")
    return arr


def _field_codes(field: FiniteField, data, name: str) -> np.ndarray:
    """``data`` as an int64 array of codes of ``field``: every entry an
    integer, not a bool, in range(q)."""
    return _checked_ints(data, name, 0, field.q, f"the order of {field}")


# ---------------------------------------------------------------------------
# corpus sampling


def indecomposable_pool(A: Algebra) -> List[Module]:
    """Simples, projective indecomposables, and their radical quotients."""
    pool: List[Module] = []

    def add(M):
        if M.dim == 0:
            return
        for P in pool:
            if P.dim == M.dim and is_isomorphic(M, P) is not None:
                return
        pool.append(M)

    for S in simple_modules(A):
        add(S)
    reg = regular_module(A)
    dec = decompose(reg, certify=False)
    J = radical(A)
    for s in dec.summands:
        P = s.module
        add(P)
        if len(J):
            # radical filtration quotients of the projective summand
            rows = []
            for jv in J:
                img = P.act(jv)
                rows.extend(img.T)  # columns of the radical action span J*P
            rad = submodule_span(P, np.array(rows)) if rows else []
            current = rad
            while len(current):
                add(quotient_module(P, current))
                # deepen the filtration: J * current
                prods = []
                for jv in J:
                    mat = P.act(jv)
                    prods.extend(A.field.vmatmul(np.array(current), mat.T))
                current = (
                    submodule_span(P, np.array(prods)) if prods else np.zeros((0, P.dim))
                )
    pool.sort(key=lambda m: (m.dim, tuple(x.tobytes() for x in m.mats)))
    return pool


def random_module_from_pool(pool, rng, max_dim=12, max_classes=3, max_mult=2):
    """A random direct sum from the pool under a random base change.

    Returns (module, expected signature) where the signature lists
    (dimension, multiplicity) pairs aggregated by dimension."""
    picks = []
    total = 0
    n_classes = 1 + int(rng.integers(0, max_classes))
    for _ in range(n_classes):
        P = pool[int(rng.integers(0, len(pool)))]
        mult = 1 + int(rng.integers(0, max_mult))
        for _ in range(mult):
            if total + P.dim > max_dim:
                break
            picks.append(P)
            total += P.dim
    if not picks:
        picks = [pool[0]]
    M, _, _ = direct_sum(picks)
    M = random_base_change(M, rng)
    sig: Dict[int, int] = {}
    for P in picks:
        sig[P.dim] = sig.get(P.dim, 0) + 1
    return M, sorted(sig.items())


def random_orbit_morphism(hom, rng) -> OrbitMor:
    """A uniformly random member of the orbit hom space ``hom``."""
    basis = hom.basis()
    if not basis:
        return OrbitMor(hom.action, hom.source, hom.target, {}, hom.support)
    return combine_orbitmors(basis, rng.integers(0, hom.action.algebra.field.q, size=len(basis)))


# ---------------------------------------------------------------------------
# the standard corpus of (algebra, action) pairs used by the law suites


def corpus_pairs() -> List[Tuple[str, Algebra, GroupAction]]:
    """At least four algebras across the groups C2, C3, C4 and C2 x C2."""
    out = []
    F7, F5, F3 = FF(7), FF(5), FF(3)

    A1 = make_group_algebra(GROUP_TABLES["C3"], F7)
    out.append(("F7C3/C2-inversion", A1,
                build_action(A1, {"group": "C2", "kind": "inversion"})))

    A2 = make_group_algebra(GROUP_TABLES["C3"], F3)
    out.append(("F3C3/C2-inversion", A2,
                build_action(A2, {"group": "C2", "kind": "inversion"})))

    A3 = make_matrix_algebra(2, F5)
    out.append(("Mat2F5/C2-swap", A3,
                build_action(A3, {"group": "C2", "kind": "conjugation",
                                  "matrix": [[0, 1], [1, 0]]})))
    out.append(("Mat2F5/C4-diag", A3,
                build_action(A3, {"group": "C4", "kind": "conjugation",
                                  "matrix": [[1, 0], [0, 2]]})))
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    diag = np.array([[1, 0], [0, 4]], dtype=np.int64)
    prod = F5.vmatmul(diag, swap)
    out.append(("Mat2F5/C2xC2", A3,
                build_action(A3, {"group": "C2xC2", "kind": "conjugation",
                                  "matrices": [np.eye(2, dtype=np.int64), diag,
                                               swap, prod]})))

    A4 = make_path_algebra(F5, 2, [(0, 1), (0, 1)])
    out.append(("KroneckerF5/C2-arrowswap", A4,
                build_action(A4, {"group": "C2", "kind": "basis_permutation",
                                  "perm": [0, 1, 3, 2]})))

    A5 = make_group_algebra(GROUP_TABLES["C2xC2"], F5)
    out.append(("F5Klein/C3-cycle", A5,
                build_action(A5, {"group": "C3", "kind": "basis_permutation",
                                  "perm": [0, 2, 3, 1]})))
    return out
