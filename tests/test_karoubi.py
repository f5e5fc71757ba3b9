import numpy as np
import pytest

from orbitcat.algebra import (
    AlgebraAut,
    is_local,
    make_group_algebra,
    make_matrix_algebra,
    primitive_orthogonal_idempotents,
)
from orbitcat.ffield import FF
from orbitcat.karoubi import (
    KarObject,
    _kar_basis,
    kar_decompose,
    kar_end_algebra,
    kar_functor_T,
    kar_is_isomorphic,
)
from orbitcat.orbit import (
    GroupAction,
    OrbitMor,
    adjunction_counit,
    functor_T,
    identity_orbitmor,
    lifted_aut,
    orbit_compose,
    orbit_hom,
    sub_adjunction_counit,
    sub_adjunction_unit,
    sub_inclusion_S,
    sub_restriction_T,
)
from orbitcat.rep import (
    Module,
    ModuleMor,
    decompose,
    hom_space,
    is_isomorphic,
    regular_module,
    submodule_from_image,
)


def raw_hom(P, Q):
    """Hom_orbit between the modules of P and Q over their support."""
    return orbit_hom(P.module, Q.module, P.action, support=P.support)


def kar_iso(P, Q):
    """kar_is_isomorphic over raw homs solved for the pair."""
    return kar_is_isomorphic(P, Q, raw_hom(P, Q), raw_hom(Q, P))


def kar_pieces(P):
    E, H = kar_end_algebra(P, raw_hom(P, P))
    return kar_decompose(P, H, primitive_orthogonal_idempotents(E))


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def character_module(A, field, value):
    k = A.dim
    mats = [np.array([[field.pow(value, i)]], dtype=np.int64) for i in range(k)]
    return Module(A, mats)


def inversion_action(A):
    k = A.dim
    U = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        U[(k - i) % k, i] = 1
    ident = AlgebraAut(A, np.eye(k, dtype=np.int64))
    return GroupAction(A, cyclic_table(2), [ident, AlgebraAut(A, U)])


def conjugation_matrix(A, u, F):
    from orbitcat.linalg import inverse

    n = int(np.sqrt(A.dim))
    uinv = inverse(F, u)
    U = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j in range(A.dim):
        Ej = np.zeros((n, n), dtype=np.int64)
        Ej[j // n, j % n] = 1
        U[:, j] = F.vmatmul(F.vmatmul(u, Ej), uinv).reshape(-1)
    return U


def mat2_swap_action():
    F = FF(5)
    A = make_matrix_algebra(2, F)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    U = conjugation_matrix(A, swap, F)
    ident = AlgebraAut(A, np.eye(4, dtype=np.int64))
    return A, GroupAction(A, cyclic_table(2), [ident, AlgebraAut(A, U)])


def column_module(A):
    mats = [np.zeros((2, 2), dtype=np.int64) for _ in range(4)]
    for u in range(2):
        for v in range(2):
            mats[u * 2 + v][u, v] = 1
    return Module(A, mats)


def test_kar_hom_identity_idempotents():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    X = regular_module(A)
    P = KarObject(action, X)
    H = _kar_basis(P, P, raw_hom(P, P))
    assert len(H.stack) == orbit_hom(X, X, action).dim
    # every basis morphism is compatible with the idempotents
    assert orbit_compose(orbit_compose(P.idem, H), P.idem) == H


def test_kar_hom_complementary_corners():
    """Compression through e and 1-e kills everything between them."""
    A, action = mat2_swap_action()
    S = column_module(A)
    P = KarObject(action, S)
    E, basis = kar_end_algebra(P, raw_hom(P, P))
    assert E.dim == 2
    es = primitive_orthogonal_idempotents(E)
    assert len(es) == 2
    pieces = kar_decompose(P, basis, es)
    p0, p1 = pieces
    # hom between complementary corners through composition is zero
    assert len(_kar_basis(p0, p1, raw_hom(p0, p1)).stack) == 0
    assert len(_kar_basis(p1, p0, raw_hom(p1, p0)).stack) == 0


def test_kar_decompose_mat2_swap():
    A, action = mat2_swap_action()
    S = column_module(A)
    P = KarObject(action, S)
    pieces = kar_pieces(P)
    assert len(pieces) == 2
    assert kar_iso(pieces[0], pieces[1]) is None
    for p in pieces:
        E, _ = kar_end_algebra(p, raw_hom(p, p))
        assert is_local(E)


@pytest.mark.parametrize("pick,error", [
    (lambda e1, e2: [2 * e1 % 5, e2], "did not map to an orbit idempotent"),
    (lambda e1, e2: [e1, e1], "not orthogonal"),
    (lambda e1, e2: [e1], "do not sum"),
], ids=["not-idempotent", "not-orthogonal", "short-sum"])
def test_kar_decompose_checks_its_idempotents(pick, error):
    """The corner of the Mat2/F5 swap object is F5 x F5 with idempotents
    e1, e2.  Bad idempotent lists fail the checks in order: squares first,
    then orthogonality, then the sum: (2 e1)^2 = 4 e1, e1 e1 = e1 != 0,
    and e1 alone does not sum to the unit."""
    A, action = mat2_swap_action()
    P = KarObject(action, column_module(A))
    E, H = kar_end_algebra(P, raw_hom(P, P))
    e1, e2 = primitive_orthogonal_idempotents(E)
    with pytest.raises(ValueError, match=error):
        kar_decompose(P, H, pick(e1, e2))


def test_kar_decompose_trivial_action_matches_rep():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    ident = AlgebraAut(A, np.eye(3, dtype=np.int64))
    action = GroupAction(A, [[0]], [ident])
    X = regular_module(A)
    pieces = kar_pieces(KarObject(action, X))
    dec = decompose(X)
    assert len(pieces) == sum(s.multiplicity for s in dec.summands) == 3


def test_kar_decompose_trivial_module_inversion():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    triv = character_module(A, F, 1)
    pieces = kar_pieces(KarObject(action, triv))
    assert len(pieces) == 2
    assert kar_iso(pieces[0], pieces[1]) is None


def test_kar_is_isomorphic_self_and_witnesses():
    A, action = mat2_swap_action()
    S = column_module(A)
    P = KarObject(action, S)
    pair = kar_iso(P, P)
    assert pair is not None
    alpha, beta = pair
    assert orbit_compose(alpha, beta) == P.idem
    assert orbit_compose(beta, alpha) == P.idem
    pieces = kar_pieces(P)
    # (X, e_i) -> (X, e) and back: both witnesses are e_i, compatible with
    # the idempotents on either side
    e0 = pieces[0].idem
    assert orbit_compose(orbit_compose(e0, e0), P.idem) == e0
    assert orbit_compose(orbit_compose(P.idem, e0), e0) == e0


def test_kar_embedding_fully_faithful():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    X = regular_module(A)
    chi = character_module(A, F, 2)
    for (M, N) in [(X, X), (X, chi), (chi, X), (chi, chi)]:
        P = KarObject(action, M)
        Q = KarObject(action, N)
        assert len(_kar_basis(P, Q, raw_hom(P, Q)).stack) == orbit_hom(M, N, action).dim


def test_kar_idempotents_split_consistently():
    """A further idempotent on a summand refines the decomposition."""
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    X = regular_module(A)
    P = KarObject(action, X)
    pieces = kar_pieces(P)
    total = sum(len(kar_pieces(p)) for p in pieces)
    assert total == len(pieces)  # pieces are primitive: no further splitting


def test_lift_functor_sub_inclusion():
    A, action = mat2_swap_action()
    S = column_module(A)
    sub = action.subgroup([0, 1])  # whole group here; also test trivial sub
    P = KarObject(action, S)
    pieces = kar_pieces(P)
    ext = KarObject(action, pieces[0].module, sub_inclusion_S(pieces[0].idem, action, sub))
    assert isinstance(ext, KarObject)
    assert ext.support == action.full_support()


def test_lift_functor_T_materializes():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    action = inversion_action(A)
    triv = character_module(A, F, 1)
    P = KarObject(action, triv)
    pieces = kar_pieces(P)
    dims = []
    for p in pieces:
        Te = functor_T(p.idem, action, support=p.support)
        W, inc, pr = submodule_from_image(Te.src, Te.matrix)
        inc, pr = ModuleMor(W, Te.src, inc), ModuleMor(Te.src, W, pr)
        inc.validate()
        pr.validate()
        assert np.array_equal(
            F.vmatmul(pr.matrix, inc.matrix), F.eye(W.dim)
        )
        dims.append(W.dim)
    assert sorted(dims) == [1, 1]
    for p, d in zip(pieces, dims):
        W = kar_functor_T(p)
        # each materialized piece is a copy of the trivial module
        assert is_isomorphic(W, triv) is not None


def test_lifted_pair_triangle_identities_on_completion():
    """(S[up-hat], T[up-hat]) stays an adjoint pair on completed objects."""
    F = FF(5)
    A = make_matrix_algebra(2, F)
    d = np.array([[1, 0], [0, 2]], dtype=np.int64)
    auts = [AlgebraAut(A, np.eye(4, dtype=np.int64))]
    m = d
    for _ in range(3):
        auts.append(AlgebraAut(A, conjugation_matrix(A, m, F)))
        m = F.vmatmul(m, d)
    action = GroupAction(A, cyclic_table(4), auts)
    sub = action.subgroup([0, 2])
    S = column_module(A)
    # unit/counit of the lifted pair act by the base unit/counit
    eta = sub_adjunction_unit(S, action, sub)
    Seta = sub_inclusion_S(eta, action, sub)
    eps = sub_adjunction_counit(S, action, sub)
    comp = orbit_compose(Seta, eps)
    assert comp == identity_orbitmor(S, action)
    # with a nontrivial idempotent: compress the triangle through (X, e)
    P = KarObject(action, S, support=action.full_support())
    pieces = kar_pieces(P)
    for p in pieces:
        e = p.idem
        lhs = orbit_compose(orbit_compose(e, Seta), orbit_compose(eps, e))
        rhs = orbit_compose(e, e)
        assert lhs == rhs


def test_lifted_aut_on_kar_strict():
    A, action = mat2_swap_action()
    S = column_module(A)
    P = KarObject(action, S)
    pieces = kar_pieces(P)
    p = pieces[0]

    def lift(q, g):
        return KarObject(action, lifted_aut(g, q.module, action),
                         lifted_aut(g, q.idem, action, support=q.support), q.support)

    a1 = lift(p, 1)
    a11 = lift(a1, 1)
    assert a11 == lift(p, 0)
    # the lift fixes isomorphism classes in the completion
    pair = kar_iso(p, a1)
    assert pair is not None
