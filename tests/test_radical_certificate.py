"""The radical's semisimplicity certificate: A/J checked in a faithful
representation on the top layers of gr V, or in its regular one."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcat import algebra as algebra_mod
from orbitcat.algebra import (
    Algebra,
    CertificationError,
    _certify_radical,
    _semisimple_poi,
    _graded_rep,
    corner_algebra,
    is_local,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    primitive_orthogonal_idempotents,
    quotient_algebra,
    radical,
)
from orbitcat.ffield import FF
from orbitcat.linalg import SpanSolver, charpoly_batched, kernel_basis, rank, rref
from orbitcat.rep import (
    Module,
    decompose,
    direct_sum,
    end_algebra,
    random_base_change,
    regular_module,
)
from orbitcat.scenarios import group_table, indecomposable_pool, random_module_from_pool

NOT_SEMISIMPLE = "quotient by claimed radical is not semisimple"


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _radical_squared(A):
    """rad(A)^2: a nilpotent two-sided ideal, strictly inside the radical
    whenever rad(A) is not 0 or a square-zero ideal."""
    J = radical(A)
    return SpanSolver(A.field, A.span_products(J, J).reshape(-1, A.dim)).basis


def _a3_with_faithful_rep():
    """The A3 path algebra with the 3-dim module on which a0 a1 acts
    nonzero: upper triangular 3 x 3 matrices in their natural action."""
    A = make_path_algebra(FF(5), 3, [(0, 1), (1, 2)])
    summands = decompose(regular_module(A), certify=False).summands
    V = next(s.module for s in summands if s.module.dim == 3)
    assert rank(A.field, V.mats.reshape(A.dim, -1)) == A.dim
    return Algebra(A.field, A.struct, A.unit, rep=V.mats, generators=A.generators)


def test_certificate_fires_through_the_regular_rep_of_the_quotient():
    A = make_path_algebra(FF(5), 3, [(0, 1), (1, 2)])
    J = _radical_squared(A)  # span{a0 a1}
    assert len(J) == 1 and A.rep is None
    assert _graded_rep(A, J) is None
    with pytest.raises(CertificationError, match=NOT_SEMISIMPLE):
        _certify_radical(A, J)


def test_certificate_fires_when_the_chain_in_a_graded_prefix_finds_a_radical():
    # End(R + R) for R the regular F3C3-module is Mat2(F3[x]/x^3), acting on
    # its 6-dim module; J = Mat2(x^2) leaves Mat2(F3[x]/x^2), which acts
    # faithfully on the 4-dim top layer V / x^2 V
    A = make_group_algebra(cyclic_table(3), FF(3))
    R = regular_module(A)
    E, _ = end_algebra(direct_sum([R, R])[0])
    J = _radical_squared(E)
    assert (E.dim, len(J)) == (12, 4)
    rep = _graded_rep(E, J)
    assert rep is not None and rep.shape == (12, 4, 4)
    with pytest.raises(CertificationError, match=NOT_SEMISIMPLE):
        _certify_radical(E, J)


def test_certificate_fires_when_gr_v_is_never_faithful():
    # the layers V / (a0 a1) V and (a0 a1) V see at most 3 + 1 dimensions
    # of the 5-dim quotient: a0 a1 and a0 lie in the kernel together
    A = _a3_with_faithful_rep()
    J = _radical_squared(A)
    assert len(J) == 1
    with pytest.raises(CertificationError, match=NOT_SEMISIMPLE):
        _graded_rep(A, J)
    with pytest.raises(CertificationError, match=NOT_SEMISIMPLE):
        _certify_radical(A, J)
    # the true radical passes
    assert len(radical(A)) == 3


def _pool_algebras():
    return {
        "F3C3": make_group_algebra(cyclic_table(3), FF(3)),
        "F2[C2xC2]": make_group_algebra(group_table("C2xC2"), FF(2)),
        "Mat2/F4": make_matrix_algebra(2, FF(2, 2)),
        "Kronecker/F5": make_path_algebra(FF(5), 2, [(0, 1), (0, 1)]),
    }


POOLS = {name: (A, indecomposable_pool(A)) for name, A in _pool_algebras().items()}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(POOLS)), seed=st.integers(0, 2 ** 32 - 1))
def test_graded_rep_is_a_faithful_quotient_module(name, seed):
    A, pool = POOLS[name]
    rng = np.random.default_rng(seed)
    picks = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 5))]
    M = random_base_change(direct_sum(picks)[0], rng)
    E, _ = end_algebra(M)
    J = radical(E, certify=False)
    np.testing.assert_array_equal(radical(E), J)
    if len(J) == 0:
        return
    dbar = E.dim - len(J)
    rep = _graded_rep(E, J)
    if rep is None:
        return
    assert rep.shape[1] < dbar
    Abar, _, _ = quotient_algebra(E, J, rep=rep)
    Module(Abar, Abar.rep)  # validates: the layers are A/J-modules
    assert rank(E.field, np.stack(Abar.rep).reshape(dbar, -1)) == dbar
    # J acts as zero on the layers
    assert not E.field.combine(J, rep).any()


def test_graded_rep_is_used_on_sums_of_copies(monkeypatch):
    """End(X^6) for a 2-dim F3C3-module X: A/J = Mat6/F3 is checked on the
    6-dim top layer of X^6, so the chain runs on no matrix larger than the
    12-dim module (the regular rep of A/J would be 36-dim)."""
    A = make_group_algebra(cyclic_table(3), FF(3))
    X = next(M for M in indecomposable_pool(A) if M.dim == 2)
    E, _ = end_algebra(direct_sum([X] * 6)[0])
    sizes = []
    original = algebra_mod.charpoly_batched

    def recording(F, mats, *args, **kwargs):
        sizes.append(mats.shape[1])
        return original(F, mats, *args, **kwargs)

    monkeypatch.setattr(algebra_mod, "charpoly_batched", recording)
    J = radical(E)
    assert (E.dim, len(J)) == (72, 36)
    assert sizes and max(sizes) <= 12
    assert _graded_rep(E, J).shape == (72, 6, 6)


def test_radical_asks_only_for_the_coefficients_it_reads(monkeypatch):
    """End(regular Mat3/F3) acts on 9 dims and its trace form vanishes
    (p = 3 divides 9), so the chain reaches the p = 3 stage: the products
    x_a x_b of the 9 * 10 / 2 pairs a <= b (charpoly(XY) = charpoly(YX)),
    of which it reads c_3 alone, so 4 coefficients are asked for.  End is
    built over the three unit pieces e_ii, so each product is three 3 x 3
    blocks, all of one size: one (135, 3, 3) stack.  The whole polynomials
    give the same radical."""
    E, _ = end_algebra(regular_module(make_matrix_algebra(3, FF(3))))
    calls = []
    original = algebra_mod.charpoly_batched

    def recording(F, mats, terms=None):
        calls.append((mats.shape, terms))
        return original(F, mats, terms)

    monkeypatch.setattr(algebra_mod, "charpoly_batched", recording)
    J = radical(E)
    assert E.rep_blocks == (3, 3, 3)
    assert calls == [((135, 3, 3), 4)]
    monkeypatch.setattr(algebra_mod, "charpoly_batched", lambda F, mats, terms: original(F, mats))
    assert np.array_equal(radical(E), J)
    assert J.shape == (0, 9)


@pytest.mark.parametrize("n, F", [(3, FF(3)), (4, FF(2, 4))], ids=["Mat3/F3", "Mat4/F16"])
def test_per_piece_charpoly_stage_gives_the_whole_stage_matrices(monkeypatch, n, F):
    """End(regular Mat_n) over its n unit pieces acts by n blocks of size n,
    and p divides the multiplicity n, so the trace form vanishes and the
    chain reaches its charpoly stages (over F16: c_2, then c_4).  Run per
    piece, every stage hands kernel_basis the matrix C byte for byte that
    the same representation taken as one block gives."""
    E, _ = end_algebra(regular_module(make_matrix_algebra(n, F)))
    assert E.rep_blocks == (n,) * n
    whole = Algebra(F, E.struct, E.unit, rep=E.rep, validate=False)
    seen = []
    original = algebra_mod.kernel_basis

    def recording(F, M):
        seen.append(np.array(M))
        return original(F, M)

    monkeypatch.setattr(algebra_mod, "kernel_basis", recording)
    J = radical(E, certify=False)
    per_piece = seen[:]
    seen.clear()
    assert np.array_equal(radical(whole, certify=False), J)
    assert len(per_piece) == {3: 2, 4: 3}[n] and not per_piece[0].any()
    assert [C.tobytes() for C in per_piece] == [C.tobytes() for C in seen]


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
       sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       terms=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_charpoly_is_the_truncated_charpoly_of_the_block_sum(q, sizes, terms, seed):
    """The truncated product of the blocks' charpolys is the leading
    coefficients of the block-diagonal matrix's charpoly, also when a block
    has fewer coefficients than are asked for."""
    F = FF(*q)
    rng = np.random.default_rng(seed)
    stacks = [rng.integers(0, F.q, size=(3, s, s)) for s in sizes]
    n = sum(sizes)
    T = min(terms, n + 1)
    X = F.zeros((3, n, n))
    off = 0
    for B in stacks:
        X[:, off:off + len(B[0]), off:off + len(B[0])] = B
        off += len(B[0])
    got = algebra_mod._blocks_charpoly(F, stacks, T)
    assert got.tobytes() == charpoly_batched(F, X, T).tobytes()


def _trace_degenerate_algebras():
    """Algebras whose faithful representation has a vanishing or degenerate
    trace form, so the chain reaches its charpoly stage p^j > 1."""
    return {
        "End(regular Mat3/F3)": end_algebra(regular_module(make_matrix_algebra(3, FF(3))))[0],
        "Mat2/F2": make_matrix_algebra(2, FF(2)),
        "Mat2/F4": make_matrix_algebra(2, FF(2, 2)),
        "F3C3": make_group_algebra(cyclic_table(3), FF(3)),
        "F2[C2xC2]": make_group_algebra(group_table("C2xC2"), FF(2)),
    }


@pytest.mark.parametrize("name", sorted(_trace_degenerate_algebras()))
def test_one_row_blocks_give_the_same_radical(monkeypatch, name):
    """The charpoly stage streams the upper triangle in row blocks of at
    most _BLOCK_CELLS product cells.  With a budget of 1 cell every block
    is one row (and every ideal-check block one generator); the certified
    radical is the same, byte for byte, as with the default budget."""
    A = _trace_degenerate_algebras()[name]
    J = radical(A)
    calls = []
    original = algebra_mod.charpoly_batched

    def recording(F, mats, terms=None):
        calls.append(len(mats))
        return original(F, mats, terms)

    monkeypatch.setattr(algebra_mod, "charpoly_batched", recording)
    monkeypatch.setattr(algebra_mod, "_BLOCK_CELLS", 1)
    J1 = radical(A)
    assert len(calls) > 1  # the stage ran, in more than one block
    assert J1.dtype == J.dtype and J1.shape == J.shape
    assert J1.tobytes() == J.tobytes()


def test_charpoly_stage_memory_is_bounded_by_the_block_budget():
    """End(regular Mat6/F3) has dimension 36 and acts on 36 dims, and p = 3
    divides 36: one (36, 36, 36, 36) product stack of the charpoly stage
    peaked at ~38 MB traced.  Streamed in blocks of at most _BLOCK_CELLS
    product cells, the whole certified radical stays under 16 MB."""
    E, _ = end_algebra(regular_module(make_matrix_algebra(6, FF(3))))
    tracemalloc.start()
    try:
        J = radical(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J.shape == (0, 36)
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("cells", [1, 2 ** 18])
def test_ideal_check_streams_every_generator_block(monkeypatch, cells):
    """F3C3 with the basis 1, g, g^2 as generators: span{1 - g} is closed
    under 1 but not under g, so with one generator per block the failure
    sits in the second block, and it is found there as in one block."""
    C3 = make_group_algebra(cyclic_table(3), FF(3))
    A = Algebra(C3.field, C3.struct, C3.unit)
    assert np.array_equal(A.generators, A.field.eye(3))
    monkeypatch.setattr(algebra_mod, "_BLOCK_CELLS", cells)
    with pytest.raises(CertificationError, match="claimed radical is not an ideal"):
        _certify_radical(A, np.array([[1, 2, 0]], dtype=np.int64))
    _certify_radical(A, radical(A, certify=False))


def _radical_full_stage(A):
    """The radical chain with a product for every ordered pair, whole
    characteristic polynomials (the trace stage included, as -c_1) and an
    entrywise inverse Frobenius: a reference for radical's triangular
    stage."""
    F = A.field
    rep = np.stack(A.faithful_rep())
    n = rep.shape[1]
    basis = F.eye(A.dim)
    j, pj = 0, 1
    while pj <= n and len(basis):
        r = len(basis)
        reps = F.combine(basis, rep)
        prods = F.vmatmul(reps[:, None], reps[None, :]).reshape(r * r, n, n)
        C = charpoly_batched(F, prods)[:, pj].reshape(r, r)
        W = np.reshape(kernel_basis(F, C.T), (-1, r))
        roots = [[F.frobenius(int(a), -j) for a in row] for row in W]
        basis = rref(F, F.vmatmul(np.reshape(roots, W.shape), basis))[0]
        j += 1
        pj *= F.p
    return basis


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(POOLS)), seed=st.integers(0, 2 ** 32 - 1))
def test_triangular_charpoly_stage_matches_the_full_stage(name, seed):
    """charpoly(XY) = charpoly(YX), so the r(r+1)/2 products of the
    unordered pairs give the radical the r^2 ordered ones give, on the
    algebra and on the endomorphism algebra of a random module."""
    A, pool = POOLS[name]
    rng = np.random.default_rng(seed)
    picks = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 4))]
    E, _ = end_algebra(random_base_change(direct_sum(picks)[0], rng))
    for B in (A, E):
        np.testing.assert_array_equal(radical(B, certify=False), _radical_full_stage(B))


def _product_algebra(*factors):
    """The direct product of algebras over one field, block by block."""
    F = factors[0].field
    d = sum(B.dim for B in factors)
    struct, unit = F.zeros((d, d, d)), F.zeros(d)
    off = 0
    for B in factors:
        block = slice(off, off + B.dim)
        struct[block, block, block] = B.struct
        unit[block] = B.unit
        off += B.dim
    return Algebra(F, struct, unit)


def test_a_partial_central_split_recomputes_the_center_of_its_corners(monkeypatch):
    """F5 x F5 x Mat2(F5) has three blocks, but the first Frobenius-fixed
    central element is the unit of the first F5: it takes the value 0 on
    the two other blocks, so one corner of the split holds F5 x Mat2(F5).
    That corner is not simple and must run the central split again."""
    F = FF(5)
    point = Algebra(F, [[[1]]], [1])
    A = _product_algebra(point, point, make_matrix_algebra(2, F))
    seen = []
    original = algebra_mod._semisimple_poi

    def recording(B, depth=0):
        seen.append((depth, B.dim, len(algebra_mod.center_basis(B))))
        return original(B, depth)

    monkeypatch.setattr(algebra_mod, "_semisimple_poi", recording)
    es = primitive_orthogonal_idempotents(A)
    # (depth, dim, center dim): both corners of the partial split run the
    # central split again, and F5 x Mat2(F5) finds its 2-dim center; its
    # own split is complete, so its simple corners (depth 2) skip it
    assert sorted(seen) == [(0, 6, 3), (1, 1, 1), (1, 5, 2)]
    assert len(es) == 4
    assert [is_local(corner_algebra(A, e)[0]) for e in es] == [True] * 4
    dec = decompose(regular_module(A), certify=True)
    assert dec.certified_local and dec.signature() == [(1, 2), (2, 2)]
    # three classes: the two points are not isomorphic
    assert sorted((s.module.dim, s.multiplicity) for s in dec.summands) == [(1, 1), (1, 1), (2, 2)]
    for s in dec.summands:
        assert is_local(end_algebra(s.module)[0])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(POOLS)), seed=st.integers(0, 2 ** 32 - 1))
def test_carried_locality_agrees_with_an_independent_check(name, seed):
    """decompose certifies each summand local through the leaves of
    primitive_orthogonal_idempotents; is_local on End(S), built afresh,
    must agree, and the summands must be the ones drawn."""
    _, pool = POOLS[name]
    M, drawn = random_module_from_pool(pool, np.random.default_rng(seed), max_dim=8)
    dec = decompose(M, certify=True)
    assert dec.certified_local
    assert dec.signature() == drawn
    for s in dec.summands:
        assert is_local(end_algebra(s.module)[0])


def test_a_leaf_that_is_not_a_field_is_rejected(monkeypatch):
    """F5 C2 = F5 x F5: its unit, passed off as one primitive idempotent
    with the whole split algebra as its leaf, passes every other check."""
    A = make_group_algebra(cyclic_table(2), FF(5))
    monkeypatch.setattr(algebra_mod, "_semisimple_poi",
                        lambda B, depth=0: [(B.unit.copy(), B)])
    with pytest.raises(CertificationError, match="leaf of a claimed primitive idempotent"):
        primitive_orthogonal_idempotents(A)


@pytest.mark.parametrize("A", [
    make_path_algebra(FF(5), 2, [(0, 1)]),
    make_group_algebra(cyclic_table(2), FF(5)),
], ids=["A2/F5", "F5C2"])
def test_an_idempotent_outside_its_coset_is_rejected(monkeypatch, A):
    """The last idempotent is 1 minus the others, so a leaf that names the
    wrong ebar for it is caught only by the coset check.  Here the last
    ebar is moved by the first one, which lies outside the radical."""
    def tampered(B, depth=0):
        leaves = _semisimple_poi(B, depth)
        if depth:  # the corners of the split recurse through here too
            return leaves
        (first, _), (last, leaf) = leaves[0], leaves[-1]
        return leaves[:-1] + [(B.field.vadd(last, first), leaf)]

    assert len(primitive_orthogonal_idempotents(A)) == 2
    monkeypatch.setattr(algebra_mod, "_semisimple_poi", tampered)
    with pytest.raises(CertificationError, match="outside the coset"):
        primitive_orthogonal_idempotents(A)
