import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcat import rep
from orbitcat.algebra import (
    AlgebraAut,
    corner_algebra,
    is_local,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    primitive_orthogonal_idempotents,
    radical,
)
from orbitcat.ffield import FF
from orbitcat.linalg import inverse, is_invertible, kernel_basis, rank, rref
from orbitcat.rep import (
    Module,
    _coordinate_blocks,
    decompose,
    direct_sum,
    end_algebra,
    hom_space,
    hom_system,
    is_isomorphic,
    random_base_change,
    regular_module,
    quotient_module,
    simple_modules,
    submodule_from_image,
    submodule_span,
    twist,
    zero_module,
)
from orbitcat.scenarios import corpus_pairs, group_table, indecomposable_pool


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def character_module(A, field, value):
    """One-dimensional module over a cyclic group algebra."""
    k = A.dim
    mats = [np.array([[field.pow(value, i)]], dtype=np.int64) for i in range(k)]
    return Module(A, mats)


def inversion_aut(A):
    k = A.dim
    U = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        U[(k - i) % k, i] = 1
    return AlgebraAut(A, U)


@pytest.fixture
def F7C3():
    return make_group_algebra(cyclic_table(3), FF(7))


@pytest.fixture
def F3C3():
    return make_group_algebra(cyclic_table(3), FF(3))


def test_hom_trivial_trivial(F7C3):
    F = FF(7)
    triv = character_module(F7C3, F, 1)
    assert hom_space(triv, triv).dim == 1


def test_hom_trivial_character(F7C3):
    F = FF(7)
    triv = character_module(F7C3, F, 1)
    chi = character_module(F7C3, F, 2)
    assert hom_space(triv, chi).dim == 0


def test_empty_hom_basis_is_an_empty_stack(F7C3):
    """Hom(M, N) = 0 has a (0, n, m) basis, out of the solve and for a zero
    module on either side."""
    F = FF(7)
    triv, R, Z = character_module(F7C3, F, 1), regular_module(F7C3), zero_module(F7C3)
    assert hom_space(triv, character_module(F7C3, F, 2)).basis.shape == (0, 1, 1)
    assert hom_space(Z, R).basis.shape == (0, 3, 0)
    assert hom_space(R, Z).basis.shape == (0, 0, 3)


def test_module_from_a_list_equals_the_module_from_its_stack(F3C3):
    """The action is one contiguous (dim A, n, n) array however it is given."""
    R = regular_module(F3C3)
    listed, stacked = Module(F3C3, list(R.mats)), Module(F3C3, np.stack(list(R.mats)))
    assert listed == stacked and hash(listed) == hash(stacked)
    assert listed.mats.shape == (3, 3, 3) and listed.mats.flags.c_contiguous


@pytest.mark.parametrize("mats,error", [
    ([np.eye(2, dtype=np.int64)] * 2, "need one action matrix per algebra basis element"),
    ([np.eye(2, dtype=np.int64)] * 2 + [np.eye(1, dtype=np.int64)],
     "action matrices must be square of equal size"),
    ([1, 1, 1], "action matrices must be square of equal size"),
    ([np.ones((2, 3), dtype=np.int64)] * 3, "action matrices must be square of equal size"),
], ids=["too-few", "unequal-sizes", "not-matrices", "not-square"])
def test_module_rejects_matrices_of_the_wrong_number_or_shape(F3C3, mats, error):
    with pytest.raises(ValueError, match=error):
        Module(F3C3, mats)


def test_hom_regular_to_trivial(F3C3):
    F = FF(3)
    reg = regular_module(F3C3)
    triv = character_module(F3C3, F, 1)
    H = hom_space(reg, triv)
    assert H.dim == 1  # the augmentation map


def test_end_algebra_simple(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    E, emb = end_algebra(chi)
    assert E.dim == 1


def test_end_algebra_s_plus_s(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    M, _, _ = direct_sum([chi, chi])
    E, _ = end_algebra(M)
    assert E.dim == 4  # Mat_2(F_7)
    assert len(radical(E)) == 0


def test_end_algebra_regular_f3c3(F3C3):
    reg = regular_module(F3C3)
    E, _ = end_algebra(reg)
    assert E.dim == 3
    assert E.is_commutative()
    assert len(radical(E)) == 2
    assert is_local(E)


def test_corner_of_end_algebra_keeps_a_faithful_rep(F3C3):
    F = FF(3)
    M, _, _ = direct_sum([regular_module(F3C3), character_module(F3C3, F, 1)])
    E, _ = end_algebra(M)
    assert E.dim == 6
    dims = []
    for e in primitive_orthogonal_idempotents(E):
        B, _ = corner_algebra(E, e)
        assert B.rep is None  # a corner's radical runs in its regular representation
        dims.append(B.dim)
    assert sorted(dims) == [1, 3]


def test_zero_corner_and_zero_end_algebra(F7C3):
    E, _ = end_algebra(character_module(F7C3, FF(7), 2))
    B, basis = corner_algebra(E, np.zeros(E.dim, dtype=np.int64))
    assert B.dim == 0 and basis.shape == (0, E.dim)
    Z, emb = end_algebra(zero_module(F7C3))
    assert Z.dim == 0 and len(emb) == 0


def test_twist_identity_bitwise(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    ident = AlgebraAut(F7C3, np.eye(3, dtype=np.int64))
    assert twist(chi, ident) == chi


def test_twist_character_by_inversion(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    tw = twist(chi, inversion_aut(F7C3))
    # the generator now acts by 2^{-1} = 4
    assert tw.mats[1][0, 0] == 4


def test_twist_strict_functoriality(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    g = inversion_aut(F7C3)
    ident = AlgebraAut(F7C3, np.eye(3, dtype=np.int64))
    assert twist(twist(chi, g), g) == twist(chi, g.compose(g))
    assert twist(chi, g.compose(g)) == twist(chi, ident)


def test_twisted_morphism_matrix_unchanged(F7C3):
    """An intertwiner between modules is an intertwiner between their twists."""
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    M, _, _ = direct_sum([chi, chi])
    g = inversion_aut(F7C3)
    for f in hom_space(M, M).basis:
        tw_src, tw_tgt = twist(M, g), twist(M, g)
        for i in range(F7C3.dim):
            assert np.array_equal(
                F.vmatmul(f, tw_src.mats[i]), F.vmatmul(tw_tgt.mats[i], f)
            )


def test_is_isomorphic_self(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    iso = is_isomorphic(chi, chi)
    assert iso is not None


def test_is_isomorphic_different_characters(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    chi2 = character_module(F7C3, F, 4)
    assert is_isomorphic(chi, chi2) is None


def test_is_isomorphic_rejects_an_undecided_decomposable(F7C3):
    """Hom(chi2 + 1, chi2 + chi4) is nonzero and holds no isomorphism; the
    source is decomposable, so a basis scan decides nothing and raises."""
    F = FF(7)
    chi2, chi4, triv = (character_module(F7C3, F, v) for v in (2, 4, 1))
    M, _, _ = direct_sum([chi2, triv])
    N, _, _ = direct_sum([chi2, chi4])
    assert hom_space(M, N).dim == 1
    with pytest.raises(ValueError, match="decomposable"):
        is_isomorphic(M, N)


def test_is_isomorphic_after_base_change(F7C3):
    rng = np.random.default_rng(7)
    reg = regular_module(F7C3)
    conj = random_base_change(reg, rng)
    iso = is_isomorphic(reg, conj)
    assert iso is not None
    F = FF(7)
    for i in range(F7C3.dim):
        assert np.array_equal(
            F.vmatmul(iso, reg.mats[i]), F.vmatmul(conj.mats[i], iso)
        )


def test_inner_twist_isomorphic():
    F = FF(5)
    A = make_matrix_algebra(2, F)
    # column module: e_uv acts as the matrix unit
    mats = [np.zeros((2, 2), dtype=np.int64) for _ in range(4)]
    for u in range(2):
        for v in range(2):
            mats[u * 2 + v][u, v] = 1
    S = Module(A, mats)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    uinv = inverse(F, swap)
    U = np.zeros((4, 4), dtype=np.int64)
    for j in range(4):
        Ej = np.zeros((2, 2), dtype=np.int64)
        Ej[j // 2, j % 2] = 1
        U[:, j] = F.vmatmul(F.vmatmul(swap, Ej), uinv).reshape(-1)
    aut = AlgebraAut(A, U)
    tw = twist(S, aut)
    iso = is_isomorphic(S, tw)
    assert iso is not None
    H = hom_space(S, tw)
    assert H.dim == 1


def test_decompose_regular_f7c3(F7C3):
    reg = regular_module(F7C3)
    dec = decompose(reg)
    assert len(dec.summands) == 3
    assert all(s.module.dim == 1 and s.multiplicity == 1 for s in dec.summands)
    assert dec.certified_local


def test_decompose_regular_f3c3(F3C3):
    reg = regular_module(F3C3)
    dec = decompose(reg)
    assert len(dec.summands) == 1
    assert dec.summands[0].module.dim == 3
    assert dec.summands[0].multiplicity == 1


def test_decompose_s_plus_s(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    M, _, _ = direct_sum([chi, chi])
    dec = decompose(M)
    assert len(dec.summands) == 1
    assert dec.summands[0].multiplicity == 2


def test_decompose_additivity(F7C3, F3C3):
    rng = np.random.default_rng(13)
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    triv = character_module(F7C3, F, 1)
    M1, _, _ = direct_sum([chi, triv, chi])
    M2, _, _ = direct_sum([triv, triv])
    MM, _, _ = direct_sum([M1, M2])
    d1 = decompose(random_base_change(M1, rng))
    d2 = decompose(random_base_change(M2, rng))
    dd = decompose(random_base_change(MM, rng))
    sig = lambda d: sorted((s.module.dim, s.multiplicity) for s in d.summands)
    combined = {}
    for s in d1.summands + d2.summands:
        key = s.module.dim
        combined[key] = combined.get(key, 0) + s.multiplicity
    total = {}
    for s in dd.summands:
        total[s.module.dim] = total.get(s.module.dim, 0) + s.multiplicity
    assert combined == total


def test_direct_sum_zero_module(F7C3):
    z = zero_module(F7C3)
    assert z.dim == 0
    dec = decompose(z)
    assert dec.summands == []


def test_direct_sum_blocks(F7C3):
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    triv = character_module(F7C3, F, 1)
    S, incs, prs = direct_sum([triv, chi])
    assert S.dim == 2
    assert np.array_equal(S.mats[1], np.diag([1, 2]))
    for inc, pr in zip(incs, prs):
        inc.validate()
        pr.validate()
        assert np.array_equal(F.vmatmul(pr.matrix, inc.matrix), F.eye(1))


def test_simple_modules_f7c3(F7C3):
    simples = simple_modules(F7C3)
    assert len(simples) == 3
    assert all(s.dim == 1 for s in simples)


def test_simple_modules_f3c3(F3C3):
    simples = simple_modules(F3C3)
    assert len(simples) == 1
    assert simples[0].dim == 1


def test_simple_modules_mat2():
    A = make_matrix_algebra(2, FF(5))
    simples = simple_modules(A)
    assert len(simples) == 1
    assert simples[0].dim == 2


def test_iso_scan_matches_decompose_route(F7C3, F3C3):
    """For indecomposables of equal dimension the hom-basis scan and the
    decompose-and-match route must agree."""
    rng = np.random.default_rng(41)
    F = FF(7)
    mods7 = [character_module(F7C3, F, v) for v in (1, 2, 4)]
    reg3 = regular_module(F3C3)
    pairs = [(a, b) for a in mods7 for b in mods7]
    pairs.append((reg3, random_base_change(reg3, rng)))
    for M, N in pairs:
        scan = None
        for f in hom_space(M, N).basis:
            from orbitcat.linalg import is_invertible

            if is_invertible(M.algebra.field, f):
                scan = f
                break
        dm = decompose(M, certify=False)
        dn = decompose(N, certify=False)
        match = (
            len(dm.summands) == len(dn.summands) == 1
            and dm.summands[0].module.dim == dn.summands[0].module.dim
            and is_isomorphic(dm.summands[0].module, dn.summands[0].module) is not None
        )
        assert (scan is not None) == match


def test_hom_dim_invariant_under_base_change(F7C3):
    rng = np.random.default_rng(23)
    F = FF(7)
    chi = character_module(F7C3, F, 2)
    M, _, _ = direct_sum([chi, character_module(F7C3, F, 1)])
    N, _, _ = direct_sum([chi, chi])
    d0 = hom_space(M, N).dim
    for _ in range(3):
        M2 = random_base_change(M, rng)
        N2 = random_base_change(N, rng)
        assert hom_space(M2, N2).dim == d0


def _permuted(M, perm):
    return Module(M.algebra, [a[perm][:, perm] for a in M.mats], validate=False)


POOLS = {name: (A, indecomposable_pool(A)) for name, A in {
    "F3C3": make_group_algebra(cyclic_table(3), FF(3)),
    "F2[C2xC2]": make_group_algebra(group_table("C2xC2"), FF(2)),
    "Mat2/F4": make_matrix_algebra(2, FF(2, 2)),
    "Kronecker/F5": make_path_algebra(FF(5), 2, [(0, 1), (0, 1)]),
}.items()}


def _pool_by_submodule_span(A):
    """indecomposable_pool(A) with each radical layer J^{i+1} P closed by
    submodule_span from the columns of J acting on J^i P."""
    pool = []

    def add(M):
        if M.dim and not any(P.dim == M.dim and is_isomorphic(M, P) is not None for P in pool):
            pool.append(M)

    for S in simple_modules(A):
        add(S)
    J = radical(A)
    for s in decompose(regular_module(A), certify=False).summands:
        P = s.module
        add(P)
        if len(J):
            current = submodule_span(P, np.array([c for jv in J for c in P.act(jv).T]))
            while len(current):
                add(quotient_module(P, current))
                prods = [r for jv in J for r in A.field.vmatmul(current, P.act(jv).T)]
                current = submodule_span(P, np.array(prods))
    pool.sort(key=lambda m: (m.dim, tuple(x.tobytes() for x in m.mats)))
    return pool


# the corpus algebras by their first pair's name: Mat2/F5 carries three actions
CORPUS_ALGEBRAS = {}
for _name, _A, _ in corpus_pairs():
    if all(A is not _A for A in CORPUS_ALGEBRAS.values()):
        CORPUS_ALGEBRAS["corpus " + _name] = _A


@pytest.mark.parametrize("name", sorted(POOLS) + sorted(CORPUS_ALGEBRAS))
def test_indecomposable_pool_matches_submodule_span_layers(name):
    """Each radical layer taken as one rref of J times the last layer gives
    the pool, byte for byte, that closing it with submodule_span gives."""
    A = POOLS[name][0] if name in POOLS else CORPUS_ALGEBRAS[name]
    got, expected = indecomposable_pool(A), _pool_by_submodule_span(A)
    assert [M.dim for M in got] == [M.dim for M in expected]
    for M, N in zip(got, expected):
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(M.mats, N.mats))


def _pool_sum(pool, basis, rng):
    """A direct sum of 2-4 pool modules on its block basis, a permuted basis
    or after a dense base change."""
    M = direct_sum([pool[i] for i in rng.integers(0, len(pool), size=rng.integers(2, 5))])[0]
    if basis == "permuted":
        return _permuted(M, rng.permutation(M.dim))
    return random_base_change(M, rng) if basis == "dense" else M


def _whole_system_basis(M, N):
    """The RREF of the kernel of the unsplit system, flattened."""
    F = M.field
    flat = [np.zeros(X.dim, dtype=np.int64) for X in (M, N)]  # every unknown kept
    vecs = kernel_basis(F, hom_system(F, M.gen_mats(), N.gen_mats(), *flat))
    return rref(F, np.stack(vecs))[0] if vecs else np.zeros((0, N.dim * M.dim), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(POOLS)),
       bases=st.tuples(*[st.sampled_from(["block", "permuted", "dense"])] * 2),
       split_all=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_hom_space_split_matches_whole_system(name, bases, split_all, seed):
    """Solved per pair of coordinate blocks, the hom basis is byte for byte
    the one of the whole system, split or not (split_all lowers the gate so
    every system with more than one block is split)."""
    _, pool = POOLS[name]
    rng = np.random.default_rng(seed)
    M, N = (_pool_sum(pool, b, rng) for b in bases)
    gate = 1 if split_all else rep._SPLIT_GATE
    with mock.patch.object(rep, "_SPLIT_GATE", gate):
        for X, Y in ((M, N), (M, M)):
            H = hom_space(X, Y)
            assert all(f.dtype == np.int64 and f.shape == (Y.dim, X.dim) for f in H.basis)
            got = np.asarray(H.basis, dtype=np.int64).reshape(len(H.basis), Y.dim * X.dim)
            expected = _whole_system_basis(X, Y)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _check_partition(G, blocks):
    """The blocks partition range(dim), and every matrix is zero off them."""
    d = G.shape[1]
    assert sorted(np.concatenate(blocks).tolist()) == list(range(d))
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    on = np.zeros((d, d), dtype=bool)
    for b in blocks:
        assert list(b) == sorted(b)
        on[np.ix_(b, b)] = True
    assert not G[:, ~on].any()


def test_coordinate_blocks_of_a_permuted_regular_matrix_module():
    rng = np.random.default_rng(5)
    for n in (3, 4):
        R = regular_module(make_matrix_algebra(n, FF(3)))
        for M in (R, _permuted(R, rng.permutation(R.dim))):
            G = M.gen_mats()
            blocks = _coordinate_blocks(G)
            assert [len(b) for b in blocks] == [n] * n
            _check_partition(G, blocks)
        # a dense base change leaves one block
        G = random_base_change(R, rng).gen_mats()
        assert [len(b) for b in _coordinate_blocks(G)] == [n * n]


def test_coordinate_blocks_keep_a_non_split_extension_whole():
    _, pool = POOLS["Kronecker/F5"]
    # the 3-dim projective: a simple top over two copies of the other simple
    P = max(pool, key=lambda X: X.dim)
    assert P.dim == 3 and len(decompose(P, certify=False).summands) == 1
    rng = np.random.default_rng(9)
    for X in (P, _permuted(P, rng.permutation(3)), random_base_change(P, rng)):
        assert [b.tolist() for b in _coordinate_blocks(X.gen_mats())] == [[0, 1, 2]]
    # a sum with it splits into its block and one per simple summand
    S, _, _ = direct_sum([pool[0], P, pool[1]])
    blocks = _coordinate_blocks(S.gen_mats())
    assert [b.tolist() for b in blocks] == [[0], [1, 2, 3], [4]]
    _check_partition(S.gen_mats(), blocks)


def _pairwise_grouping(M):
    """The grouping decompose made before its classes came from E/J: the
    images of the primitive idempotents of End(M), each compared by a
    hom-basis scan with the representative of every class so far."""
    F = M.field
    E, emb = end_algebra(M)
    classes = []  # [representative module, multiplicity]
    for e in primitive_orthogonal_idempotents(E):
        S = submodule_from_image(M, F.combine(e, np.stack(emb)))[0]
        hit = next((c for c in classes if rep.is_isomorphic(S, c[0]) is not None), None)
        if hit is None:
            classes.append([S, 1])
        else:
            hit[1] += 1
    return classes


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(POOLS)), seed=st.integers(0, 2 ** 32 - 1))
def test_decompose_classes_match_a_pairwise_grouping(name, seed):
    """On random base-changed pool sums, decompose's classes (read off the
    blocks of E/J) are the pairwise scan's, in its order, with the same
    representatives and multiplicities; every copy's witnesses carry the
    representative's action: pr rho(b) inc = rho_S(b) and pr inc = id."""
    _, pool = POOLS[name]
    M = _pool_sum(pool, "dense", np.random.default_rng(seed))
    F = M.field
    dec = decompose(M, certify=True)
    assert [(s.module, s.multiplicity) for s in dec.summands] == \
        [tuple(c) for c in _pairwise_grouping(M)]
    for s in dec.summands:
        assert len(s.witnesses) == s.multiplicity
        for inc, pr in s.witnesses:
            assert np.array_equal(F.vmatmul(pr, inc), F.eye(s.module.dim))
            assert np.array_equal(F.vmatmul(pr, F.vmatmul(M.mats, inc)), s.module.mats)


def test_decompose_makes_no_pairwise_hom_solve():
    """Grouping the summands costs no hom_space call beyond End(M)'s own."""
    _, pool = POOLS["Kronecker/F5"]
    M = _pool_sum(pool, "dense", np.random.default_rng(3))
    with mock.patch.object(rep, "hom_space", wraps=rep.hom_space) as spy, \
            mock.patch.object(rep, "is_isomorphic", side_effect=AssertionError):
        dec = decompose(M)
    assert spy.call_count == 1 and sum(s.multiplicity for s in dec.summands) >= 2


def _mat2_swap_skew():
    """The skew group algebra of Mat2/F5 under the C2 swap conjugation, with
    its induction context."""
    from orbitcat.oracle import SkewContext
    from orbitcat.scenarios import build_action

    A = make_matrix_algebra(2, FF(5))
    ctx = SkewContext(build_action(A, {"group": "C2", "kind": "conjugation",
                                       "matrix": [[0, 1], [1, 0]]}))
    return ctx, regular_module(A)


def _piece_cases():
    """(name, module): dense base changes of regular modules over algebras
    whose unit splits into pieces, and Ind M for the Mat2/F5 swap."""
    from orbitcat.oracle import induce_skew

    rng = np.random.default_rng(30)
    algebras = {
        "Mat3/F3": make_matrix_algebra(3, FF(3)),
        "Mat3/F4": make_matrix_algebra(3, FF(2, 2)),
        "Mat4/F3": make_matrix_algebra(4, FF(3)),
        "Kronecker/F5": POOLS["Kronecker/F5"][0],
        "A4 with a relation/F3": make_path_algebra(FF(3), 4, [(0, 1), (1, 2), (2, 3)],
                                                   relations=[[0, 1]]),
    }
    cases = [(name, random_base_change(regular_module(A), rng)) for name, A in algebras.items()]
    ctx, R = _mat2_swap_skew()
    cases.append(("Ind Mat2/F5 swap", random_base_change(induce_skew(ctx, R), rng)))
    return cases


@pytest.mark.parametrize("name, M", _piece_cases(), ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("gate", ["default", 1])
def test_hom_space_over_unit_pieces_matches_whole_system(name, M, gate):
    """End(M), Hom(M, N) and Hom(N, M), solved over the unit pieces, are byte
    for byte the whole system's basis; N is another dense module, M plus a
    simple module.  Gate 1 takes every system over the pieces (the regular
    Kronecker module has 16 unknowns only)."""
    A = M.algebra
    assert len(A.unit_pieces) > 1
    S = simple_modules(A)[-1]
    N = random_base_change(direct_sum([M, S])[0], np.random.default_rng(M.dim))
    gate = rep._PIECE_GATE if gate == "default" else gate
    with mock.patch.object(rep, "_PIECE_GATE", gate), \
            mock.patch.object(rep, "_piece_basis", wraps=rep._piece_basis) as spy:
        for X, Y in ((M, M), (M, N), (N, M)):
            H = hom_space(X, Y)
            got = np.asarray(H.basis, dtype=np.int64).reshape(len(H.basis), Y.dim * X.dim)
            expected = _whole_system_basis(X, Y)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    if M.dim ** 2 >= gate:
        assert spy.call_count == 5  # End(M) adapts M once


def test_hom_space_rejects_piece_actions_that_are_not_projections():
    """A module whose e_00 acts as 2 P, no projection over F5, raises and
    names the module, as source and as target."""
    R = regular_module(make_matrix_algebra(3, FF(5)))
    mats = list(R.mats)
    mats[0] = FF(5).vmul(2, mats[0])
    bad = Module(R.algebra, mats, validate=False)
    with pytest.raises(ValueError, match="source module Module"):
        hom_space(bad, R)
    with pytest.raises(ValueError, match="target module Module"):
        hom_space(R, bad)


def test_end_of_a_dense_regular_mat4_solves_over_the_pieces():
    """End of a dense regular Mat4/F3 module hands kernel_basis systems of at
    most sum_v m_v^2 = 4 * 4^2 = 64 unknowns, not 16^2 = 256."""
    M = random_base_change(regular_module(make_matrix_algebra(4, FF(3))),
                           np.random.default_rng(4))
    with mock.patch.object(rep, "kernel_basis", wraps=rep.kernel_basis) as spy:
        H = hom_space(M, M)
    assert H.dim == 16
    assert max(np.shape(c.args[1])[1] for c in spy.call_args_list) <= 64


def test_hom_system_over_the_pieces_is_built_on_the_kept_unknowns_only():
    """End of a dense regular Mat6/F3 module keeps 6 * 6^2 = 216 of its
    36^2 = 1,296 unknowns.  Built on all of them, its 3,960 x 1,296 system
    peaked at 46.7 MB traced; built on the kept ones, the whole call stays
    under 10 MB, and no system has more columns than its kept unknowns."""
    M = random_base_change(regular_module(make_matrix_algebra(6, FF(3))),
                           np.random.default_rng(6))
    widths = []

    def recording(F, GM, GN, lm, ln):
        system = hom_system(F, GM, GN, lm, ln)
        widths.append((system.shape[1], np.count_nonzero(ln[:, None] == lm)))
        return system

    with mock.patch.object(rep, "hom_system", recording):
        tracemalloc.start()
        try:
            H = hom_space(M, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert H.dim == 36
    assert widths and all(cols == kept <= 216 for cols, kept in widths)
    assert peak <= 10 * 2 ** 20


@pytest.mark.parametrize("vectors", [[[1, 0, 0, 0, 0, 0]], [[1, 0, 0, 0, 0, 0]] * 2,
                                     [[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]]])
def test_submodule_span_closes_dependent_inputs(vectors):
    """e0 generates the 3-dim projective P_0 of the path algebra 0 -> 1 -> 2
    however often it is repeated."""
    A = make_path_algebra(FF(5), 3, [(0, 1), (1, 2)])
    R = regular_module(A)
    assert A.labels[0] == "e0"
    S = submodule_span(R, np.array(vectors))
    assert len(S) == 3
    assert rank(FF(5), np.concatenate([S] + [FF(5).vmatmul(S, g.T) for g in R.gen_mats()])) == 3


def _skew(A, action):
    from orbitcat.orbit import make_skew_group_algebra
    from orbitcat.scenarios import build_action

    return make_skew_group_algebra(build_action(A, action))


# algebras whose unit splits into pieces: path, matrix and skew group
# algebras over F2, F3 and F4; pools are built on first use
PIECE_ALGEBRAS = {
    "Kronecker/F2": lambda: make_path_algebra(FF(2), 2, [(0, 1), (0, 1)]),
    "A3/F4": lambda: make_path_algebra(FF(2, 2), 3, [(0, 1), (1, 2)]),
    "Mat2/F3": lambda: make_matrix_algebra(2, FF(3)),
    "Mat3/F2": lambda: make_matrix_algebra(3, FF(2)),
    "Mat2/F4": lambda: make_matrix_algebra(2, FF(2, 2)),
    "Mat2/F3 x| C2 swap": lambda: _skew(make_matrix_algebra(2, FF(3)), {
        "group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]}),
    "Kronecker/F4 x| C2 arrows": lambda: _skew(
        make_path_algebra(FF(2, 2), 2, [(0, 1), (0, 1)]),
        {"group": "C2", "kind": "basis_permutation", "perm": [0, 1, 3, 2]}),
}
_PIECE_POOLS = {}


def _piece_pool(name):
    if name not in _PIECE_POOLS:
        _PIECE_POOLS[name] = indecomposable_pool(PIECE_ALGEBRAS[name]())
    return _PIECE_POOLS[name]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PIECE_ALGEBRAS)), seed=st.integers(0, 2 ** 32 - 1))
def test_end_algebra_over_the_pieces_matches_whole_products(name, seed):
    """End(M) built from per-piece block products is byte for byte the
    algebra the k^2 products of whole n x n matrices give: structure
    constants and unit; its representation is that one's, T^-1 f T, zero
    off the pieces' blocks, and the hom basis is handed back unchanged."""
    pool = _piece_pool(name)
    rng = np.random.default_rng(seed)
    picks = []
    while sum(P.dim for P in picks) ** 2 < rep._PIECE_GATE:
        picks.append(pool[rng.integers(0, len(pool))])
    M = random_base_change(direct_sum(picks)[0], rng)
    F = M.field
    H = hom_space(M, M)
    assert H.pieces is not None
    basis = H.basis
    whole = rep.algebra_on_span(F, basis, (F.vmatmul(f, basis) for f in basis),
                                F.eye(M.dim), rep=basis)
    E, emb = end_algebra(M)
    assert emb.tobytes() == basis.tobytes()
    for got, want in ((E.struct, whole.struct), (E.unit, whole.unit)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    T, Ti, labels = H.pieces
    assert np.array_equal(E.rep, F.vmatmul(Ti, F.vmatmul(whole.rep, T)))
    assert E.rep_blocks == tuple(np.bincount(labels)[np.bincount(labels) > 0])
    assert not E.rep[:, labels[:, None] != labels].any()


def test_end_algebra_rejects_an_endomorphism_off_the_pieces(monkeypatch):
    """A hom basis whose first element moves the image of one unit piece
    into another's is caught before any product is formed."""
    M = random_base_change(regular_module(make_matrix_algebra(3, FF(3))),
                           np.random.default_rng(33))
    F = M.field
    H = hom_space(M, M)
    T, Ti, labels = H.pieces
    off = F.zeros((M.dim, M.dim))
    off[0, M.dim - 1] = 1  # labels 0 and 2: an entry off the pieces' blocks
    assert labels[0] != labels[-1]
    bad = H.basis.copy()
    bad[0] = F.vadd(bad[0], F.vmatmul(T, F.vmatmul(off, Ti)))
    monkeypatch.setattr(rep, "hom_space", lambda X, Y: rep.HomSpace(X, Y, bad, pieces=H.pieces))
    with pytest.raises(rep.CertificationError, match="moves a unit piece's image"):
        end_algebra(M)


def test_random_base_change_draws_as_with_a_rank_test():
    """One solve decides invertibility and gives the inverse: the draws are
    those of a loop that tests the rank first, and the module is conjugated
    by the first invertible draw."""
    M = regular_module(make_matrix_algebra(2, FF(2)))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        while True:
            g = rng.integers(0, 2, size=(4, 4))
            if is_invertible(M.field, g):
                break
        want = M.field.vmatmul(g, M.field.vmatmul(M.mats, inverse(M.field, g)))
        assert np.array_equal(random_base_change(M, np.random.default_rng(seed)).mats, want)
