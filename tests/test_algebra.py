import numpy as np
import pytest

from orbitcat.algebra import (
    Algebra,
    AlgebraAut,
    algebra_on_span,
    CertificationError,
    IdempotentSet,
    center_basis,
    corner_algebra,
    is_local,
    lift_idempotent,
    make_group_algebra,
    make_matrix_algebra,
    make_path_algebra,
    primitive_orthogonal_idempotents,
    quotient_algebra,
    radical,
    validate_group_table,
)
from orbitcat.ffield import FF
from orbitcat.linalg import SpanSolver, rank
from orbitcat.oracle import frobenius_action
from orbitcat.orbit import GroupAction, make_skew_group_algebra


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def klein_table():
    # C2 x C2 written as bit xor
    return [[i ^ j for j in range(4)] for i in range(4)]


def s3_table():
    # permutations of {0,1,2}: index by (r, s) -> r^i s^j with s r s = r^-1
    import itertools

    perms = [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
        (0, 2, 1),
        (2, 1, 0),
        (1, 0, 2),
    ]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[0] * 6 for _ in range(6)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[t]] for t in range(3))
            table[i][j] = idx[comp]
    return table


def test_group_table_validation():
    validate_group_table(cyclic_table(3))
    validate_group_table(s3_table())
    bad = [[0, 1], [1, 1]]
    with pytest.raises(ValueError):
        validate_group_table(bad)


def test_generator_products_are_formed_once_per_construction(monkeypatch):
    """The group algebra of C12 has one generator, so certifying that it
    generates takes 11 frontier steps; the generator's left-multiplication
    matrices, a combination of the structure constants, are formed once
    before them."""
    F = FF(5)
    A = make_group_algebra(cyclic_table(12), F)
    calls = []
    combine = type(F).combine

    def counted(self, coeffs, stack):
        calls.append(np.shape(stack))
        return combine(self, coeffs, stack)

    monkeypatch.setattr(type(F), "combine", counted)
    B = Algebra(F, A.struct, A.unit, generators=A.generators, validate=False)
    assert len(B.generators) == 1
    assert calls == [(12, 12, 12)]


def test_group_algebra_trivial_and_c3():
    F = FF(5)
    A = make_group_algebra([[0]], F)
    assert A.dim == 1
    A = make_group_algebra(cyclic_table(3), FF(7))
    assert A.dim == 3
    assert A.is_commutative()


def test_group_algebra_s3_center_dim_3():
    A = make_group_algebra(s3_table(), FF(3))
    assert A.dim == 6
    assert len(center_basis(A)) == 3  # one class sum per conjugacy class


def test_matrix_algebra_relations():
    F = FF(5)
    A = make_matrix_algebra(1, F)
    assert A.dim == 1
    A = make_matrix_algebra(2, F)
    e11, e12, e21, e22 = np.eye(4, dtype=np.int64)
    assert np.array_equal(A.mul_vec(e11, e12), e12)
    assert not A.mul_vec(e12, e11).any() or True
    assert np.array_equal(A.mul_vec(e12, e21), e11)
    assert not A.mul_vec(e12, e11)[1] or True
    # e12 * e11 = 0
    assert not A.mul_vec(e12, e11).any()
    with pytest.raises(ValueError):
        make_matrix_algebra(0, F)


def test_matrix_algebra_radical_zero():
    A = make_matrix_algebra(2, FF(5))
    assert len(radical(A)) == 0


def test_path_algebra_kronecker():
    F = FF(5)
    A = make_path_algebra(F, 2, [(0, 1), (0, 1)])
    assert A.dim == 4
    assert len(radical(A)) == 2  # the two arrows span the radical


def test_path_algebra_single_vertex():
    A = make_path_algebra(FF(7), 1, [])
    assert A.dim == 1


def test_path_algebra_a2():
    A = make_path_algebra(FF(5), 2, [(0, 1)])
    assert A.dim == 3
    J = radical(A)
    assert len(J) == 1


def test_path_algebra_infinite_detected():
    with pytest.raises(ValueError, match="infinite"):
        make_path_algebra(FF(5), 1, [(0, 0)])
    # loop truncated by a relation is fine: k[x]/(x^2)
    A = make_path_algebra(FF(5), 1, [(0, 0)], relations=[(0, 0)])
    assert A.dim == 2
    assert len(radical(A)) == 1


def _struct_by_relation_scan(arrows, relations, labels):
    """Path algebra structure constants by scanning each concatenated walk
    for a relation, on the basis that ``labels`` names."""
    paths = []
    for lab in labels:
        if lab.startswith("e"):
            paths.append((int(lab[1:]), (), int(lab[1:])))
        else:
            word = tuple(int(a[1:]) for a in lab.split("*"))
            paths.append((arrows[word[0]][0], word, arrows[word[-1]][1]))
    index = {(s, w): i for i, (s, w, _) in enumerate(paths)}
    d = len(paths)
    struct = np.zeros((d, d, d), dtype=np.int64)
    for i, (ps, pw, _) in enumerate(paths):
        for j, (qs, qw, qe) in enumerate(paths):
            word = qw + pw
            if ps == qe and not any(word[k:k + len(r)] == r
                                    for k in range(len(word)) for r in relations):
                struct[i, j, index[(qs, word)]] = 1
    return struct


def _random_walk(arrows, rng, length):
    """A composable arrow word of at most ``length`` arrows, or ()."""
    word = [int(rng.integers(len(arrows)))]
    while len(word) < length:
        nxt = [a for a, (s, _) in enumerate(arrows) if s == arrows[word[-1]][1]]
        if not nxt:
            break
        word.append(nxt[int(rng.integers(len(nxt)))])
    return tuple(word)


def test_path_algebra_matches_relation_scan_on_random_quivers():
    """On seeded random quivers with monomial relations, a product is
    nonzero exactly when the concatenated walk is a basis walk: the
    structure constants are those of the relation scan, and a quiver
    whose basis is infinite raises."""
    rng = np.random.default_rng(2029)
    finite = 0
    for _ in range(150):
        n = int(rng.integers(1, 4))
        arrows = [tuple(int(v) for v in rng.integers(0, n, size=2))
                  for _ in range(int(rng.integers(0, 5)))]
        relations = ([_random_walk(arrows, rng, int(rng.integers(1, 4)))
                      for _ in range(int(rng.integers(0, 4)))] if arrows else [])
        try:
            A = make_path_algebra(FF(3), n, arrows, relations)
        except ValueError as ex:
            assert "infinite path basis" in str(ex)
            continue
        finite += 1
        expected = _struct_by_relation_scan(arrows, relations, A.labels)
        assert A.struct.tobytes() == expected.tobytes(), (n, arrows, relations)
    assert finite >= 40


def test_path_basis_size_is_counted_before_the_paths_are_listed():
    """A quiver's path basis is sized from its automaton's walk counts, so
    one with a finite but huge basis is refused at once: the arrows i -> j
    for i < j on 40 vertices have 2^40 - 1 paths.  The linear quiver on 40
    vertices has 40 * 41 / 2 = 820."""
    arrows = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    with pytest.raises(ValueError, match=f"algebra of dimension {2 ** 40 - 1} "):
        make_path_algebra(FF(2), 40, arrows)
    with pytest.raises(ValueError, match="algebra of dimension 820 "):
        make_path_algebra(FF(2), 40, [(i, i + 1) for i in range(39)])
    assert make_path_algebra(FF(2), 6, [(i, i + 1) for i in range(5)]).dim == 21


@pytest.mark.parametrize("build", [
    lambda F: make_group_algebra((np.arange(257)[:, None] + np.arange(257)) % 257, F),
    lambda F: make_matrix_algebra(17, F),
], ids=["C257", "Mat17"])
def test_algebras_above_dimension_256_are_refused(build):
    """Above dimension 256 building an algebra would hold more than 1 GiB
    in (d, d, d) arrays; the builders refuse before allocating the
    structure constants, the group algebra before its group axioms'
    check, which builds (k, k, k) arrays."""
    with pytest.raises(ValueError, match="algebra of dimension (257|289) is larger than supported"):
        build(FF(2))


def test_radical_f7c3_semisimple():
    A = make_group_algebra(cyclic_table(3), FF(7))
    assert len(radical(A)) == 0


def test_radical_f3c3_modular():
    A = make_group_algebra(cyclic_table(3), FF(3))
    J = radical(A)
    assert len(J) == 2
    # spanned by g - 1 and g^2 - 1
    F = FF(3)
    v1 = np.array([2, 1, 0], dtype=np.int64)  # g - 1
    v2 = np.array([2, 0, 1], dtype=np.int64)  # g^2 - 1
    S = SpanSolver(F, J)
    assert S.contains(v1) and S.contains(v2)


def test_radical_f2_klein_group():
    # augmentation ideal of F_2[C2 x C2]; needs the deepest chain stage
    A = make_group_algebra(klein_table(), FF(2))
    J = radical(A)
    assert len(J) == 3


def test_radical_faithful_rep_equivalence():
    # radical via the regular representation matches a hand-made nilpotent case
    F = FF(5)
    # upper triangular 2x2 matrices: basis e11, e22, e12
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    struct[0, 0, 0] = 1  # e11*e11
    struct[1, 1, 1] = 1
    struct[0, 2, 2] = 1  # e11*e12 = e12
    struct[2, 1, 2] = 1  # e12*e22 = e12
    unit = np.array([1, 1, 0], dtype=np.int64)
    A = Algebra(F, struct, unit)
    J = radical(A)
    assert len(J) == 1 and J[0][2] == 1


def test_quotient_algebra():
    A = make_group_algebra(cyclic_table(3), FF(3))
    J = radical(A)
    Abar, project, lift = quotient_algebra(A, J)
    assert Abar.dim == 1
    assert np.array_equal(project(A.unit), Abar.unit)


def test_lift_idempotent_fixed_point():
    A = make_matrix_algebra(2, FF(5))
    e11 = np.eye(4, dtype=np.int64)[0]
    J = np.zeros((0, 4), dtype=np.int64)
    assert np.array_equal(lift_idempotent(A, J, e11), e11)


def test_lift_idempotent_through_radical():
    # upper triangular algebra: e11 + nilpotent lifts back to an idempotent
    F = FF(5)
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    struct[0, 0, 0] = 1
    struct[1, 1, 1] = 1
    struct[0, 2, 2] = 1
    struct[2, 1, 2] = 1
    A = Algebra(F, struct, np.array([1, 1, 0]))
    J = radical(A)
    ebar = np.array([1, 0, 3], dtype=np.int64)  # e11 + 3*e12
    e = lift_idempotent(A, J, ebar)
    assert np.array_equal(A.mul_vec(e, e), e)
    assert e[0] == 1 and e[1] == 0


def test_lift_idempotent_local_algebra():
    A = make_group_algebra(cyclic_table(3), FF(3))
    J = radical(A)
    ebar = A.unit.copy()
    ebar = A.field.vadd(ebar, J[0])  # 1 + nilpotent
    e = lift_idempotent(A, J, ebar)
    assert np.array_equal(e, A.unit)


def test_poi_f7c3_characters():
    F = FF(7)
    A = make_group_algebra(cyclic_table(3), F)
    es = primitive_orthogonal_idempotents(A)
    assert len(es) == 3
    es.verify()
    # the classical formula: e_chi = 3^{-1} sum chi(g^{-1}) g, 3^{-1} = 5 mod 7
    expected = set()
    for chi in (1, 2, 4):
        vec = tuple(
            F.mul(5, F.pow(chi, (3 - i) % 3)) for i in range(3)
        )
        expected.add(vec)
    got = {tuple(int(c) for c in e) for e in es}
    assert got == expected


def test_poi_f3c3_local():
    A = make_group_algebra(cyclic_table(3), FF(3))
    es = primitive_orthogonal_idempotents(A)
    assert len(es) == 1
    assert np.array_equal(es.idempotents[0], A.unit)


def test_poi_product_of_fields():
    F = FF(5)
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0, 0] = 1
    struct[1, 1, 1] = 1
    A = Algebra(F, struct, np.array([1, 1]))
    es = primitive_orthogonal_idempotents(A)
    got = sorted(tuple(int(c) for c in e) for e in es)
    assert got == [(0, 1), (1, 0)]


def test_poi_matrix_algebra():
    A = make_matrix_algebra(2, FF(5))
    es = primitive_orthogonal_idempotents(A)
    assert len(es) == 2
    es.verify()


def test_poi_matrix_algebra_f2():
    A = make_matrix_algebra(3, FF(2))
    es = primitive_orthogonal_idempotents(A)
    assert len(es) == 3
    es.verify()


def test_is_local():
    assert is_local(make_group_algebra(cyclic_table(3), FF(3)))
    assert not is_local(make_matrix_algebra(2, FF(5)))
    F = FF(5)
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0, 0] = 1
    struct[1, 1, 1] = 1
    assert not is_local(Algebra(F, struct, np.array([1, 1])))
    # a field extension viewed as algebra is local: F_4 over F_2
    F2 = FF(2)
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    # basis 1, w with w^2 = w + 1
    struct[0, 0, 0] = 1
    struct[0, 1, 1] = 1
    struct[1, 0, 1] = 1
    struct[1, 1, 0] = 1
    struct[1, 1, 1] = 1
    assert is_local(Algebra(F2, struct, np.array([1, 0])))


_F7C3 = make_group_algebra(cyclic_table(3), FF(7))
# path algebra of one arrow 0 -> 1 on the basis (e0, e1, a): a*e0 = a = e1*a
_ONE_ARROW = make_path_algebra(FF(5), 2, [(0, 1)])


@pytest.mark.parametrize(
    "A, claimed",
    [
        # the span of the unit fails on both sides
        (_F7C3, _F7C3.unit[None, :]),
        # span{e0} fails only on the left products b*x (a*e0 = a)
        (_ONE_ARROW, np.array([[1, 0, 0]])),
        # span{e1} fails only on the right products x*b (e1*a = a)
        (_ONE_ARROW, np.array([[0, 1, 0]])),
    ],
    ids=["unit-both-sides", "e0-left-only", "e1-right-only"],
)
def test_radical_certificates_fire_on_bad_input(A, claimed):
    from orbitcat.algebra import _certify_radical

    with pytest.raises(CertificationError, match="ideal"):
        _certify_radical(A, claimed)
    # the whole algebra is an ideal but not nilpotent
    with pytest.raises(CertificationError, match="nilpotent"):
        _certify_radical(A, A.field.eye(A.dim))


def test_idempotent_set_verify_rejects_fakes():
    A = make_matrix_algebra(2, FF(5))
    e11 = np.eye(4, dtype=np.int64)[0]
    e12 = np.eye(4, dtype=np.int64)[1]
    bad = IdempotentSet(A, [e12])
    with pytest.raises(CertificationError, match="not idempotent"):
        bad.verify()
    incomplete = IdempotentSet(A, [e11])
    with pytest.raises(CertificationError, match="sum"):
        incomplete.verify()
    # e11 + e12 is idempotent; of the pairs that fail, (0, 2), (2, 0) and
    # (2, 1), the first in row order is named
    e22 = np.eye(4, dtype=np.int64)[3]
    overlapping = IdempotentSet(A, [e11, e22, e11 + e12])
    with pytest.raises(CertificationError, match="idempotents 0, 2 not orthogonal"):
        overlapping.verify()


@pytest.mark.parametrize("p, labels", [(2, [0, 1, 1]), (3, [0, 1]), (5, [0, 0, 1, 2])])
def test_poi_classes_come_with_isomorphisms(p, labels):
    """F_p S3: over F2 a local block beside Mat2(F2), over F3 one block
    with two non-isomorphic projectives and a radical, over F5 Mat2 beside
    two points.  Each (alpha, beta) lies in r A e x e A r for r its class
    representative, with beta alpha = e and alpha beta = r."""
    A = make_group_algebra(s3_table(), FF(p))
    es = primitive_orthogonal_idempotents(A)
    assert es.labels == labels
    for e, label, (alpha, beta) in zip(es, es.labels, es.isos):
        r = es.idempotents[labels.index(label)]
        assert np.array_equal(A.mul_vec(A.mul_vec(r, alpha), e), alpha)
        assert np.array_equal(A.mul_vec(A.mul_vec(e, beta), r), beta)
        assert np.array_equal(A.mul_vec(beta, alpha), e)
        assert np.array_equal(A.mul_vec(alpha, beta), r)


def test_a_class_test_that_says_yes_across_blocks_is_rejected():
    """With the radical taken as zero, the class test reads the arrow of
    the A2 path algebra, which lies in r A e for one order of its two
    idempotents, as an isomorphism; no beta inverts it."""
    from orbitcat.algebra import _iso_classes

    A = make_path_algebra(FF(5), 2, [(0, 1)])
    es = list(primitive_orthogonal_idempotents(A))
    no_radical = SpanSolver(A.field, np.zeros((0, A.dim), dtype=np.int64))
    caught = []
    for order in (es, es[::-1]):
        try:
            assert _iso_classes(A, order, no_radical)[0] == [0, 1]
        except CertificationError as exc:
            caught.append(str(exc))
    assert caught == ["class test of idempotents 0 and 1: no beta in e A r inverts "
                      "the alpha in r A e outside the radical"]


def test_a_corrupted_beta_fails_the_class_check(monkeypatch):
    """Mat2/F5: both idempotents are in one class.  A beta off by one in
    every solved coefficient still lies in e A r but fails alpha beta = r."""
    import orbitcat.algebra as algebra_mod

    A = make_matrix_algebra(2, FF(5))
    es = list(primitive_orthogonal_idempotents(A))
    no_radical = SpanSolver(A.field, np.zeros((0, A.dim), dtype=np.int64))
    assert algebra_mod._iso_classes(A, es, no_radical)[0] == [0, 0]
    solve = algebra_mod.solve
    monkeypatch.setattr(algebra_mod, "solve", lambda F, M, b: (solve(F, M, b) + 1) % F.p)
    with pytest.raises(CertificationError, match="idempotents 0 and 1"):
        algebra_mod._iso_classes(A, es, no_radical)


def test_brute_force_radical_agreement():
    """Cross-check the chain radical against the properly-nilpotent set
    on small algebras where elements can be enumerated."""
    cases = [
        make_group_algebra(cyclic_table(2), FF(2)),
        make_group_algebra(cyclic_table(3), FF(3)),
        make_group_algebra(cyclic_table(4), FF(2)),
        make_group_algebra(klein_table(), FF(2)),
        make_path_algebra(FF(2), 2, [(0, 1)]),
        make_group_algebra(cyclic_table(2), FF(3)),
    ]
    for A in cases:
        F = A.field
        d = A.dim
        J = radical(A)
        S = SpanSolver(F, J) if len(J) else None
        brute = []
        for code in range(F.q ** d):
            x = np.array([(code // F.q ** i) % F.q for i in range(d)], dtype=np.int64)
            # properly nilpotent: x*a nilpotent for every a
            ok = True
            for acode in range(F.q ** d):
                a = np.array(
                    [(acode // F.q ** i) % F.q for i in range(d)], dtype=np.int64
                )
                y = A.mul_vec(x, a)
                z = y.copy()
                for _ in range(d):
                    z = A.mul_vec(z, y)
                # z = y^(d+1); nilpotent iff y^d = 0 iff y^(d+1) = 0 here
                if z.any():
                    ok = False
                    break
            if ok:
                brute.append(x)
        brute_rank = rank(F, np.array(brute)) if brute else 0
        assert brute_rank == len(J)
        for x in brute:
            if x.any():
                assert S is not None and S.contains(x)


def test_skew_group_algebra_trivial_action():
    F = FF(5)
    base = make_group_algebra([[0]], F)  # the ground field
    action = GroupAction(base, cyclic_table(2),
                         [AlgebraAut(base, np.eye(1, dtype=np.int64)) for _ in range(2)])
    S = make_skew_group_algebra(action)
    assert S.dim == 2
    # isomorphic to the group algebra of C2: commutative, semisimple over F5
    assert S.is_commutative()
    assert len(radical(S)) == 0


def test_skew_f3c3_by_inversion_is_f3s3():
    F = FF(3)
    A = make_group_algebra(cyclic_table(3), F)
    inv_perm = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        inv_perm[(3 - i) % 3, i] = 1
    action = GroupAction(A, cyclic_table(2),
                         [AlgebraAut(A, np.eye(3, dtype=np.int64)), AlgebraAut(A, inv_perm)])
    S = make_skew_group_algebra(action)
    assert S.dim == 6
    # explicit isomorphism with F3[S3]: (g^i (x) c^j) -> r^i s^j
    B = make_group_algebra(s3_table(), F)
    # skew basis index: g*3 + i for c^g, r^i; S3 index from its table build
    perms = [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
        (0, 2, 1),
        (2, 1, 0),
        (1, 0, 2),
    ]
    idx = {p: i for i, p in enumerate(perms)}
    r = perms[1]
    s = perms[3]

    def compose(p, q):
        return tuple(p[q[t]] for t in range(3))

    mapping = np.zeros(6, dtype=np.int64)  # skew basis -> S3 element index
    for g in range(2):
        for i in range(3):
            perm = (0, 1, 2)
            for _ in range(i):
                perm = compose(r, perm)
            if g:
                perm = compose(perm, s)
            mapping[g * 3 + i] = idx[perm]
    # transport structure constants through the bijection
    for a in range(6):
        for b in range(6):
            prod_skew = S.mul_vec(np.eye(6, dtype=np.int64)[a], np.eye(6, dtype=np.int64)[b])
            k_skew = int(np.nonzero(prod_skew)[0][0])
            lhs = mapping[k_skew]
            rhs = B.mul_vec(
                np.eye(6, dtype=np.int64)[mapping[a]], np.eye(6, dtype=np.int64)[mapping[b]]
            )
            assert rhs[lhs] == 1


def test_skew_mat2_swap_conjugation():
    F = FF(5)
    A = make_matrix_algebra(2, F)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    U = _conjugation_matrix(A, swap, F)
    action = GroupAction(A, cyclic_table(2),
                         [AlgebraAut(A, np.eye(4, dtype=np.int64)), AlgebraAut(A, U)])
    S = make_skew_group_algebra(action)
    assert S.dim == 8
    S.validate()


def _conjugation_matrix(A, u, F):
    """Coordinate matrix of x -> u x u^-1 on a matrix algebra."""
    from orbitcat.linalg import inverse

    n = int(np.sqrt(A.dim))
    uinv = inverse(F, u)
    U = np.zeros((A.dim, A.dim), dtype=np.int64)
    for j in range(A.dim):
        Ej = np.zeros((n, n), dtype=np.int64)
        Ej[j // n, j % n] = 1
        img = F.vmatmul(F.vmatmul(u, Ej), uinv)
        U[:, j] = img.reshape(-1)
    return U


def test_twisted_group_ring_trivial_group():
    A = make_skew_group_algebra(frobenius_action(3, 2, [[0]], {0: 0}))
    assert A.dim == 2
    assert A.is_commutative()
    assert len(radical(A)) == 0  # it is the field F_9


def test_twisted_group_ring_f9_c2():
    A = make_skew_group_algebra(frobenius_action(3, 2, cyclic_table(2), {0: 0, 1: 1}))
    assert A.dim == 4
    # crossed product of a C2 Galois extension: central simple, center F_3
    assert len(center_basis(A)) == 1
    assert len(radical(A)) == 0


def test_twisted_group_ring_f81_c4():
    A = make_skew_group_algebra(
        frobenius_action(3, 4, cyclic_table(4), {0: 0, 1: 1, 2: 2, 3: 3}))
    assert A.dim == 16


def test_twisted_group_ring_bad_phi():
    with pytest.raises(ValueError, match="homomorphism"):
        frobenius_action(3, 4, cyclic_table(2), {0: 0, 1: 1})


def test_radical_over_extension_ground_fields():
    """The Frobenius-twisted stages of the radical chain over F_4 and F_9."""
    F4 = FF(2, 2)
    A = make_group_algebra(cyclic_table(2), F4)
    assert len(radical(A)) == 1  # augmentation ideal in characteristic 2
    assert is_local(A)
    F9 = FF(3, 2)
    B = make_group_algebra(cyclic_table(3), F9)
    assert len(radical(B)) == 2
    assert is_local(B)
    C = make_group_algebra(cyclic_table(3), F4)
    assert len(radical(C)) == 0  # semisimple: 2 does not divide 3


def test_poi_splits_over_extension_field():
    # x^3 - 1 has three roots over F_4, so F_4[C3] has three idempotents
    A = make_group_algebra(cyclic_table(3), FF(2, 2))
    es = primitive_orthogonal_idempotents(A)
    assert len(es) == 3
    es.verify()


def test_corner_algebra_of_matrix_unit():
    A = make_matrix_algebra(2, FF(5))
    e11 = np.eye(4, dtype=np.int64)[0]
    B, emb = corner_algebra(A, e11)
    assert B.dim == 1
    assert is_local(B)


def test_skew_rejects_non_strict_action():
    F = FF(7)
    A = make_group_algebra(klein_table(), F)
    P = np.zeros((4, 4), dtype=np.int64)
    P[0, 0] = 1
    P[2, 1] = 1  # order-3 cycle of the involutions on a C2 table
    P[3, 2] = 1
    P[1, 3] = 1
    auts = [AlgebraAut(A, np.eye(4, dtype=np.int64)), AlgebraAut(A, P)]
    with pytest.raises(ValueError, match="not strict"):
        GroupAction(A, cyclic_table(2), auts)


def test_lift_idempotent_rejects_bad_precondition():
    A = make_matrix_algebra(2, FF(5))
    J = np.zeros((0, 4), dtype=np.int64)
    nilpotent = np.array([0, 1, 0, 0], dtype=np.int64)  # e12: square is 0, not e12
    with pytest.raises(ValueError, match="idempotent"):
        lift_idempotent(A, J, nilpotent)


def test_algebra_structural_equality():
    A1 = make_group_algebra(cyclic_table(3), FF(7))
    A2 = make_group_algebra(cyclic_table(3), FF(7))
    assert A1 == A2 and A1 is not A2
    assert A1 != make_group_algebra(cyclic_table(3), FF(3))


def test_algebra_aut_compose_and_inverse():
    F = FF(5)
    A = make_matrix_algebra(2, F)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    U = AlgebraAut(A, _conjugation_matrix(A, swap, F))
    assert U.compose(U) == AlgebraAut(A, F.eye(A.dim))
    assert U.inverse() == U
    d = np.array([[1, 0], [0, 2]], dtype=np.int64)
    V = AlgebraAut(A, _conjugation_matrix(A, d, F))
    W = U.compose(V)
    W.validate()


def test_algebra_on_span_rejects_spans_that_are_not_closed():
    F = FF(5)
    A = make_matrix_algebra(2, F)
    e00, e01, e10, _ = F.eye(4)
    B = algebra_on_span(F, e00[None], A.span_products(e00[None], e00[None]), e00)
    assert B.dim == 1 and list(B.unit) == [1]
    # e01 * e10 = e00 leaves span{e01, e10}
    off = np.stack([e01, e10])
    with pytest.raises(ValueError):
        algebra_on_span(F, off, A.span_products(off, off), F.zeros(4))
    # span{e00} is closed, but the unit e00 + e11 lies outside it
    with pytest.raises(ValueError):
        algebra_on_span(F, e00[None], A.span_products(e00[None], e00[None]), A.unit)
    # coordinates are taken against the rows given: b = 2 e00 has b b = 2 b
    # and unit e00 = 3 b over F5
    b = 2 * e00[None]
    B = algebra_on_span(F, b, A.span_products(b, b), e00)
    assert B.struct.tolist() == [[[2]]] and B.unit.tolist() == [3]
    # dependent rows are no basis
    with pytest.raises(ValueError, match="independent"):
        dep = np.stack([e00, 2 * e00])
        algebra_on_span(F, dep, A.span_products(dep, dep), e00)


def test_unit_pieces_of_each_builder():
    """Path algebras give their vertices, matrix algebras the e_ii and skew
    group algebras over either the e_v (x) 1.  The unit of a group algebra,
    of a field extension and of a quotient of a group algebra is one basis
    element, and a local algebra (a corner at a primitive idempotent, the
    End of an indecomposable) has no two orthogonal idempotents: none."""
    from orbitcat.rep import end_algebra, random_base_change, regular_module
    from orbitcat.scenarios import build_action

    F5 = FF(5)
    K = make_path_algebra(F5, 2, [(0, 1), (0, 1)])
    chain = make_path_algebra(FF(3), 4, [(0, 1), (1, 2), (2, 3)], relations=[[0, 1]])
    A = make_matrix_algebra(3, F5)
    assert K.unit_pieces == (0, 1)
    assert chain.unit_pieces == (0, 1, 2, 3)
    assert A.unit_pieces == (0, 4, 8)
    assert make_matrix_algebra(1, F5).unit_pieces == ()
    swap = build_action(make_matrix_algebra(2, F5),
                        {"group": "C2", "kind": "conjugation", "matrix": [[0, 1], [1, 0]]})
    arrows = build_action(K, {"group": "C2", "kind": "basis_permutation", "perm": [0, 1, 3, 2]})
    assert make_skew_group_algebra(swap).unit_pieces == (0, 3)
    assert make_skew_group_algebra(arrows).unit_pieces == (0, 1)

    G = make_group_algebra(cyclic_table(3), FF(3))
    galois = frobenius_action(3, 2, cyclic_table(2), {0: 0, 1: 1})
    assert G.unit_pieces == ()
    assert galois.algebra.unit_pieces == ()
    assert make_skew_group_algebra(galois).unit_pieces == ()
    assert quotient_algebra(G, radical(G))[0].unit_pieces == ()
    assert corner_algebra(A, A.field.eye(9)[0])[0].unit_pieces == ()
    assert end_algebra(regular_module(G))[0].unit_pieces == ()
    column = random_base_change(regular_module(A), np.random.default_rng(0))
    E, _ = end_algebra(column)
    e = next(iter(primitive_orthogonal_idempotents(E)))
    assert corner_algebra(E, e)[0].unit_pieces == ()
    # the invariant reads struct alone: an algebra on a span that keeps the
    # pieces as basis elements has them too
    assert quotient_algebra(K, radical(K))[0].unit_pieces == (0, 1)
    assert corner_algebra(K, K.unit)[0].unit_pieces == (0, 1)
    assert end_algebra(regular_module(make_matrix_algebra(2, F5)))[0].unit_pieces == (0, 3)


def test_unit_pieces_need_orthogonal_idempotents_summing_to_the_unit():
    F = FF(5)
    # F5 x F5 on the basis (e, f) of its two orthogonal idempotents
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0, 0] = struct[1, 1, 1] = 1
    assert Algebra(F, struct, [1, 1]).unit_pieces == (0, 1)
    # on the basis (1, e): e^2 = e, and the unit is one basis element
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 0, 1] = struct[1, 1, 1] = 1
    assert Algebra(F, struct, [1, 0]).unit_pieces == ()
    # F5[x]/(x^2) on the basis (1 - x, x): the unit is their sum, but x^2 = 0
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0] = [1, 4]
    struct[0, 1] = struct[1, 0] = [0, 1]
    assert Algebra(F, struct, [1, 1]).unit_pieces == ()
    # F5 x F5 on the basis (2 e, 3 f): the unit 3 (2 e) + 2 (3 f)
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0, 0], struct[1, 1, 1] = 2, 3
    assert Algebra(F, struct, [3, 2]).unit_pieces == ()
