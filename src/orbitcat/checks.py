"""The built-in verification corpus.

Each check is a named function returning a CheckResult; the CLI selftest
runs them all and the acceptance test suite drives the same functions, so
the command-line gate and the test gate cannot drift apart.  All sampling
is seeded and every assertion is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, List

import numpy as np

from .algebra import (
    CertificationError,
    make_group_algebra,
    make_matrix_algebra,
    primitive_orthogonal_idempotents,
    radical,
)
from .clifford import clifford_run
from .ffield import FF
from .karoubi import KarObject, kar_decompose, kar_end_algebra
from .linalg import kernel_basis, poly_at_matrix, solve
from .oracle import (
    GaloisScenario,
    SkewContext,
    counit_split_test,
    galois_build,
    galois_monad_group_check,
    galois_rank_check,
    induce_skew,
    oracle_compare,
)
from .orbit import (
    OrbitMor,
    adjunction_counit,
    adjunction_unit,
    adjuster_nu,
    functor_S,
    functor_T,
    identity_orbitmor,
    kleisli_phi_psi,
    lifted_aut,
    orbit_compose,
    orbit_hom,
    sub_inclusion_S,
    sub_restriction_T,
)
from .rep import (
    Module,
    ModuleMor,
    decompose,
    direct_sum,
    hom_space,
    regular_module,
)
from .scenarios import (
    GROUP_TABLES,
    build_action,
    corpus_pairs,
    indecomposable_pool,
    random_module_from_pool,
    random_orbit_morphism,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    data: dict = dc_field(default_factory=dict)


def _mat2_swap():
    A = make_matrix_algebra(2, FF(5))
    action = build_action(
        A, {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]}
    )
    return A, action


def _column_module(A):
    mats = [np.zeros((2, 2), dtype=np.int64) for _ in range(4)]
    for u in range(2):
        for v in range(2):
            mats[u * 2 + v][u, v] = 1
    return Module(A, mats)


def _f7c3():
    A = make_group_algebra(GROUP_TABLES["C3"], FF(7))
    return A, build_action(A, {"group": "C2", "kind": "inversion"})


def _character(A, field, value):
    return Module(
        A, [np.array([[field.pow(value, i)]], dtype=np.int64) for i in range(A.dim)]
    )


def check_mat2_orbit_end(seed=0) -> CheckResult:
    """Mat2(F5) with the swap action: the simple module's orbit
    endomorphism ring is two-dimensional and splits into two
    non-isomorphic primitive summands."""
    A, action = _mat2_swap()
    S = _column_module(A)
    oh = orbit_hom(S, S, action)
    P = KarObject(action, S)
    E, H = kar_end_algebra(P, oh)
    es = primitive_orthogonal_idempotents(E)
    pieces = kar_decompose(P, H, es)
    distinct = es.labels == [0, 1]  # summands of one object: E/J decides their classes
    passed = oh.dim == 2 and len(es) == 2 and len(pieces) == 2 and distinct
    return CheckResult(
        "mat2_swap_orbit_end",
        passed,
        f"orbit End dimension: {oh.dim}; idempotents: {len(es)}; "
        f"summands: {len(pieces)}; non-isomorphic: {distinct}",
        {"end_dim": oh.dim, "summands": len(pieces)},
    )


def check_kronecker_arrow_swap(seed=0) -> CheckResult:
    """Both Kronecker simples are fixed by the arrow swap; the pipeline
    completes with local certificates everywhere."""
    from .algebra import make_path_algebra
    from .rep import simple_modules

    A = make_path_algebra(FF(5), 2, [(0, 1), (0, 1)])
    action = build_action(
        A, {"group": "C2", "kind": "basis_permutation", "perm": [0, 1, 3, 2]}
    )
    simples = simple_modules(A)
    results = []
    for S in simples:
        rep = clifford_run(action, S)
        results.append(
            rep.inertia_subgroup == (0, 1)
            and rep.sum_n_equals_inertia
            and all(s.local for s in rep.stage2)
        )
    passed = len(simples) == 2 and all(results)
    return CheckResult(
        "kronecker_arrow_swap",
        passed,
        f"simples: {len(simples)}; inertia C2 and local certificates: {results}",
    )


def check_f7c3_clifford(seed=0) -> CheckResult:
    """F7 C3 under inversion: the nontrivial character induces simply, the
    trivial module splits into two summands with n_j = 1, and the skew
    oracle agrees on every signature."""
    A, action = _f7c3()
    F = FF(7)
    ctx = SkewContext(action)
    chi = _character(A, F, 2)
    triv = _character(A, F, 1)
    rep_chi = clifford_run(action, chi)
    cmp_chi = oracle_compare(rep_chi, ctx, chi)
    rep_triv = clifford_run(action, triv)
    cmp_triv = oracle_compare(rep_triv, ctx, triv)
    conds = [
        rep_chi.inertia_subgroup == (0,),
        # under trivial inertia the stage-2 corner is End((chi, id)) over the
        # whole group, the algebra trivial_inertia_check tests for locality
        rep_chi.stage2[0].local,
        rep_triv.inertia_subgroup == (0, 1),
        len(rep_triv.stage1) == 2,
        all(s.n_copies == 1 for s in rep_triv.stage1),
        rep_triv.sum_n_equals_inertia,
        cmp_chi["match"],
        cmp_triv["match"],
    ]
    return CheckResult(
        "f7c3_clifford_with_oracle",
        all(conds),
        f"chi inertia trivial: {conds[0]}; S(chi) indecomposable: {conds[1]}; "
        f"trivial splits in two with n=1 each: {conds[3] and conds[4]}; "
        f"oracle signatures match: {conds[6] and conds[7]}",
    )


def check_f3c3_modular(seed=0) -> CheckResult:
    """F3 C3 under inversion (modular, coprime index): every indecomposable
    passes the pipeline and the skew oracle agrees."""
    from .rep import quotient_module, submodule_span

    F = FF(3)
    A = make_group_algebra(GROUP_TABLES["C3"], F)
    action = build_action(A, {"group": "C2", "kind": "inversion"})
    ctx = SkewContext(action)
    reg = regular_module(A)
    J = radical(A)
    j2 = A.span_products(J, J).reshape(-1, 3)
    dim2 = quotient_module(reg, submodule_span(reg, j2))
    triv = _character(A, F, 1)
    mods = [triv, dim2, reg]
    oks = []
    for M in mods:
        rep = clifford_run(action, M)
        cmp_out = oracle_compare(rep, ctx, M)
        oks.append(
            rep.sum_n_equals_inertia
            and all(s.local for s in rep.stage2)
            and cmp_out["match"]
        )
    passed = [m.dim for m in mods] == [1, 2, 3] and all(oks)
    return CheckResult(
        "f3c3_modular_clifford",
        passed,
        f"dims {[m.dim for m in mods]}; pipeline+oracle per module: {oks}",
    )


def check_adjunction_laws(seed=0, min_samples=50) -> CheckResult:
    """The adjunction laws of (S, T) across the whole corpus, each checked
    once against its own witness.

    - triangle-S: eps_X o S(eta_X) = id_X in the orbit category.  S(eta_X)
      is then a section of the counit, so this law also carries the
      pointwise split counit.
    - triangle-T: T(eps_X) eta_{TX} = id_{TX} in the base category.
    - kleisli-roundtrip: phi and psi are mutually inverse on a random f.
    - unit-retraction: eta_X has a left inverse in the base category.
    - twist-iso-g: the lifted twist gX and X are isomorphic, with an
      explicit two-sided inverse.
    - hom-formula: Frobenius reciprocity over the skew group algebra,
      dim Hom_{A x| Gamma}(Ind P, Ind Q) = dim Hom_orbit(P, Q), for every
      pair (P, Q) of each corpus pair's indecomposable pool.  Both sides
      are additive in each argument and invariant under base change, and
      every sample is a direct sum of pool members under a base change,
      so the pool pairs cover every sample.  The samples themselves are
      not induced: their hom systems over A x| Gamma are far larger.
      dim Hom_orbit(P, Q) is the sum of dim Hom(P, gQ) over g, and a twist
      gQ often has the matrices of a pool member, so orbit_hom is asked
      only for the components g whose pair (P, gQ) this call has not
      solved yet, keyed on both modules."""
    rng = np.random.default_rng(seed)
    samples = 0
    pairs = corpus_pairs()
    pools = {}
    for name, A, action in pairs:
        pools[name] = indecomposable_pool(A)
    failures = []
    groups_seen = set()
    per_pair = max(1, (min_samples + len(pairs) - 1) // len(pairs))
    hom_dims = {}  # (P, gQ) -> dim Hom(P, gQ)
    for name, A, action in pairs:
        orders = []
        for g in action.elements():
            acc, order = g, 1
            while acc != 0:
                acc = action.mul(acc, g)
                order += 1
            orders.append(order)
        groups_seen.add((action.k, tuple(sorted(orders))))
        F = A.field
        pool = pools[name]
        # hom dimension formula: Frobenius reciprocity on the pool
        ctx = SkewContext(action)
        induced = [induce_skew(ctx, P) for P in pool]
        for P, IP in zip(pool, induced):
            for Q, IQ in zip(pool, induced):
                keys = [(P, action.twisted(Q, g)) for g in action.elements()]
                # one g per unsolved pair: equal twists have one hom space
                new = {key: g for g, key in zip(action.elements(), keys) if key not in hom_dims}
                if new:
                    space = orbit_hom(P, Q, action, sorted(new.values()))
                    hom_dims.update((key, space.components[g].dim) for key, g in new.items())
                orbit_dim = sum(hom_dims[key] for key in keys)
                if hom_space(IP, IQ).dim != orbit_dim:
                    failures.append((name, "hom-formula"))
        for _ in range(per_pair):
            X, _ = random_module_from_pool(pool, rng, max_dim=6)
            Y, _ = random_module_from_pool(pool, rng, max_dim=6)
            f = random_orbit_morphism(orbit_hom(X, Y, action), rng)
            samples += 1
            # triangle identities
            eta = adjunction_unit(X, action)
            Seta = functor_S(eta, action)
            eps = adjunction_counit(X, action)
            if orbit_compose(Seta, eps) != identity_orbitmor(X, action):
                failures.append((name, "triangle-S"))
            TX = functor_T(X, action)
            etaT = adjunction_unit(TX, action)
            Teps = functor_T(eps, action)
            if not np.array_equal(
                F.vmatmul(Teps.matrix, etaT.matrix), F.eye(TX.dim)
            ):
                failures.append((name, "triangle-T"))
            # phi/psi mutual inversion
            blk = kleisli_phi_psi(f, action)
            if kleisli_phi_psi(blk, action) != f:
                failures.append((name, "kleisli-roundtrip"))
            # pointwise split unit (retraction in the base category)
            if solve(F, eta.matrix.T, F.eye(X.dim)) is None:
                failures.append((name, "unit-retraction"))
            # lifted twists fix isomorphism classes: explicit two-sided inverse
            for g in action.elements():
                Xg = lifted_aut(g, X, action)
                u = OrbitMor(action, Xg, X, {g: F.eye(X.dim)})
                v = OrbitMor(action, X, Xg, {action.inv(g): F.eye(X.dim)})
                if orbit_compose(v, u) != identity_orbitmor(X, action):
                    failures.append((name, f"twist-iso-{g}"))
    wanted = {
        (2, (1, 2)),           # C2
        (3, (1, 3, 3)),        # C3
        (4, (1, 2, 4, 4)),     # C4
        (4, (1, 2, 2, 2)),     # C2 x C2
    }
    passed = not failures and samples >= min_samples and wanted.issubset(groups_seen)
    return CheckResult(
        "adjunction_law_suite",
        passed,
        f"samples: {samples} over {len(pairs)} (algebra, action) pairs, "
        f"groups C2/C3/C4/C2xC2 all present: {wanted.issubset(groups_seen)}; "
        f"failures: {failures[:5]}",
        {"samples": samples},
    )


def check_subgroup_factorization(seed=0) -> CheckResult:
    """S and T factor exactly through every subgroup of C4 and C2 x C2,
    and the adjuster coherence holds exhaustively."""
    rng = np.random.default_rng(seed)
    F5 = FF(5)
    A = make_matrix_algebra(2, F5)
    diag = np.array([[1, 0], [0, 4]], dtype=np.int64)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    actions = [
        build_action(A, {"group": "C4", "kind": "conjugation",
                         "matrix": [[1, 0], [0, 2]]}),
        build_action(A, {"group": "C2xC2", "kind": "conjugation",
                         "matrices": [np.eye(2, dtype=np.int64), diag, swap,
                                      F5.vmatmul(diag, swap)]}),
    ]
    failures = []
    for action in actions:
        k = action.k
        subgroups = []
        for mask in range(1, 2 ** k):
            elems = [i for i in range(k) if mask & (1 << i)]
            if 0 not in elems:
                continue
            try:
                subgroups.append(action.subgroup(elems))
            except ValueError:
                continue
        subgroups = sorted(set(subgroups))
        S = _column_module(A)
        X, _ = random_module_from_pool(indecomposable_pool(A), rng, max_dim=6)
        for sub in subgroups:
            # S factorization on morphisms
            for m in hom_space(S, X).basis[:2]:
                mm = ModuleMor(S, X, m)
                down = functor_S(mm, action, support=sub)
                if sub_inclusion_S(down, action, sub) != functor_S(mm, action):
                    failures.append((action.k, sub, "S"))
            # T factorization on objects and morphisms
            up = sub_restriction_T(S, action, sub)
            both = functor_T(up, action, support=sub)
            full = functor_T(S, action)
            if not both.equal_with_blocks(full):
                failures.append((action.k, sub, "T-object"))
            f = random_orbit_morphism(orbit_hom(S, S, action), rng)
            upf = sub_restriction_T(f, action, sub)
            bothf = functor_T(upf, action, support=sub)
            fullf = functor_T(f, action)
            if not np.array_equal(bothf.matrix, fullf.matrix):
                failures.append((action.k, sub, "T-morphism"))
        # adjuster coherence, exhaustively over the group
        for g in range(k):
            for h in range(k):
                lhs = adjuster_nu(action.mul(h, g), S, action)
                rhs = orbit_compose(
                    adjuster_nu(g, S, action),
                    adjuster_nu(h, action.twisted(S, g), action),
                )
                if lhs != rhs:
                    failures.append((action.k, (g, h), "adjuster"))
    return CheckResult(
        "subgroup_factorization",
        not failures,
        f"C4 and C2xC2 subgroup lattices checked; failures: {failures[:5]}",
    )


def check_galois_scenario(seed=0) -> CheckResult:
    """q=3, M=F81, L=F9, G=C4, H=C2: rank 4 freeness and the C2 x C2
    monad group."""
    sc = GaloisScenario(q=3, deg_l=2, deg_m=4,
                        table=GROUP_TABLES["C4"], phi=[0, 1, 2, 3], H=[0, 2])
    tower = galois_build(sc)
    rank_out = galois_rank_check(tower)
    monad_out = galois_monad_group_check(tower)
    passed = (
        rank_out["ok"]
        and rank_out["rank"] == 4
        and monad_out["ok"]
        and monad_out["group_order"] == 4
        and monad_out["element_orders"] == [1, 2, 2, 2]
    )
    return CheckResult(
        "galois_f81_over_f9",
        passed,
        f"free rank: {rank_out['rank']}; monad group order {monad_out.get('group_order')} "
        f"with element orders {monad_out.get('element_orders')} (C2 x C2)",
        {"rank": rank_out, "monad": monad_out},
    )


def check_counit_split_criterion(seed=0) -> CheckResult:
    """The counit splits whenever the characteristic is prime to the group
    order, and fails on the designated p=2, C2 witness."""
    A, action = _f7c3()
    ctx = SkewContext(action)
    F = FF(7)
    oks = []
    for M in (_character(A, F, 2), _character(A, F, 1), regular_module(A)):
        X = induce_skew(ctx, M)
        oks.append(counit_split_test(ctx, X))
    F2 = FF(2)
    A2 = make_group_algebra([[0]], F2)
    act2 = build_action(A2, {"group": "C2", "kind": "trivial"})
    ctx2 = SkewContext(act2)
    triv = Module(ctx2.skew, [np.eye(1, dtype=np.int64)] * 2, validate=False)
    witness = counit_split_test(ctx2, triv)
    passed = all(oks) and not witness
    return CheckResult(
        "counit_split_criterion",
        passed,
        f"split over F7 samples: {oks}; p=2 C2 witness split: {witness} (expected False)",
    )


def check_krull_schmidt_engine(seed=0, n_modules=100) -> CheckResult:
    """Randomized soundness of the decomposition engine: certified local
    summands, exact witnesses, additivity, the constructed multiset is
    recovered, and a minimal-polynomial brute-force oracle agrees."""
    rng = np.random.default_rng(seed)
    from .algebra import make_path_algebra

    algebras = [
        make_group_algebra(GROUP_TABLES["C3"], FF(7)),
        make_group_algebra(GROUP_TABLES["C3"], FF(3)),
        make_matrix_algebra(2, FF(5)),
        make_path_algebra(FF(5), 2, [(0, 1), (0, 1)]),
    ]
    pools = [indecomposable_pool(A) for A in algebras]
    count = 0
    failures = []
    while count < n_modules:
        idx = count % len(algebras)
        A, pool = algebras[idx], pools[idx]
        M, expected_sig = random_module_from_pool(pool, rng, max_dim=12)
        count += 1
        dec = decompose(M)  # certify=True: local End + exact witnesses
        got_sig = dec.signature()
        if got_sig != expected_sig:
            failures.append(("signature", idx, got_sig, expected_sig))
            continue
        oracle_sig = _brute_force_signature(M)
        if oracle_sig != got_sig:
            failures.append(("oracle", idx, got_sig, oracle_sig))
        if count % 7 == 0:
            N, _ = random_module_from_pool(pool, rng, max_dim=6)
            both, _, _ = direct_sum([M, N])
            dd = decompose(both, certify=False)
            dN = decompose(N, certify=False)
            union = {}
            for s in dec.summands + dN.summands:
                union[s.module.dim] = union.get(s.module.dim, 0) + s.multiplicity
            if sorted(union.items()) != dd.signature():
                failures.append(("additivity", idx))
    return CheckResult(
        "krull_schmidt_engine",
        not failures and count >= n_modules,
        f"{count} random modules decomposed with certificates; failures: {failures[:5]}",
        {"count": count},
    )


def _brute_force_signature(M: Module):
    """Split via exhaustive minimal-polynomial factoring of endomorphism
    basis elements, scalar shifts, and pairwise combinations; no use of
    the radical/idempotent machinery."""
    from .linalg import min_poly
    from .poly import Poly, poly_factor

    F = M.field
    leaves = []

    def split(N: Module):
        if N.dim == 0:
            return
        H = hom_space(N, N).basis
        candidates = list(H)
        for i in range(len(H)):
            for lam in range(1, F.q):
                candidates.append(F.vadd(H[i], F.vmul(lam, F.eye(N.dim))))
            for j in range(i + 1, len(H)):
                candidates.append(F.vadd(H[i], H[j]))
                candidates.append(F.vmatmul(H[i], H[j]))
        for f in candidates:
            mp = min_poly(F, f)
            factors = poly_factor(mp)
            if len(factors) < 2:
                continue
            # primary decomposition: kernels of the coprime factor powers
            pieces = []
            ok = True
            for g, a in factors:
                ga = Poly.one(F)
                for _ in range(a):
                    ga = ga * g
                ker = kernel_basis(F, poly_at_matrix(F, ga, f))
                if not ker:
                    ok = False
                    break
                pieces.append(np.stack(ker))
            if not ok or len(pieces) < 2:
                continue
            for rows in pieces:
                split(_restrict_to_rows(N, rows))
            return
        leaves.append(N.dim)

    split(M)
    agg = {}
    for d in leaves:
        agg[d] = agg.get(d, 0) + 1
    return sorted(agg.items())


def _restrict_to_rows(N: Module, rows):
    """The invariant subspace spanned by the rows, with restricted action."""
    F = N.field
    from .linalg import rref, solve as lsolve

    basis, _ = rref(F, rows)
    inc = basis.T
    mats = []
    for mat in N.mats:
        img = F.vmatmul(mat, inc)
        coeff = lsolve(F, inc, img)
        if coeff is None:
            raise CertificationError("subspace is not invariant")
        mats.append(coeff)
    return Module(N.algebra, mats, validate=False)


ALL_CHECKS: List[Callable[..., CheckResult]] = [
    check_mat2_orbit_end,
    check_kronecker_arrow_swap,
    check_f7c3_clifford,
    check_f3c3_modular,
    check_adjunction_laws,
    check_subgroup_factorization,
    check_galois_scenario,
    check_counit_split_criterion,
    check_krull_schmidt_engine,
]


def run_selftest(seed: int = 0) -> List[CheckResult]:
    out = []
    for fn in ALL_CHECKS:
        out.append(fn(seed=seed))
    return out
