import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orbitcat.ffield import FF
from orbitcat.poly import (
    Poly,
    is_irreducible,
    poly_factor,
    poly_gcd,
    squarefree_decomposition,
)


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_poly_normalization():
    F = FF(5)
    assert P(F, 1, 2, 0, 0).codes == (1, 2)
    assert P(F).is_zero()
    assert P(F, 0).is_zero()


def test_ring_ops():
    F = FF(7)
    f = P(F, 1, 1)  # 1 + x
    g = P(F, 6, 1)  # -1 + x
    assert (f * g).codes == (6, 0, 1)  # x^2 - 1
    q, r = divmod(P(F, 6, 0, 1), f)
    assert q == g and r.is_zero()


def test_factor_cube_roots_of_unity_mod_7():
    F = FF(7)
    f = P(F, 6, 0, 0, 1)  # x^3 - 1
    factors = poly_factor(f)
    roots = set()
    for g, mult in factors:
        assert mult == 1
        assert g.degree == 1
        # root is -c0
        roots.add(F.neg(g.codes[0]))
    assert roots == {1, 2, 4}
    for r in roots:
        assert F.pow(r, 3) == 1


def test_factor_x():
    F = FF(5)
    assert poly_factor(P(F, 0, 1)) == [(P(F, 0, 1), 1)]


def test_factor_x2_plus_1_mod_5():
    F = FF(5)
    factors = poly_factor(P(F, 1, 0, 1))
    roots = sorted(F.neg(g.codes[0]) for g, _ in factors)
    assert roots == [2, 3]
    assert F.mul(2, 2) == 4 and F.mul(3, 3) == 4  # both square to -1


def test_factor_zero_errors():
    F = FF(5)
    with pytest.raises(ValueError, match="zero input"):
        poly_factor(Poly.zero(F))


def test_factor_with_multiplicities_char_p():
    F = FF(3)
    # (x - 1)^3 = x^3 - 1 in characteristic 3
    f = P(F, 2, 0, 0, 1)
    factors = poly_factor(f)
    assert factors == [(P(F, 2, 1), 3)]


def test_factor_sorted_and_irreducible():
    F = FF(2)
    # x^6 + x^5 + x^4 + x^3 + x^2 + x = x (x+1)^2 (x^2+x+1) ... check product
    f = P(F, 0, 1, 1, 1, 1, 1, 1)
    factors = poly_factor(f)
    prod = Poly.one(F)
    last_key = None
    for g, m in factors:
        assert is_irreducible(g)
        assert g.codes[-1] == 1
        if last_key is not None:
            assert g.sort_key() >= last_key
        last_key = g.sort_key()
        for _ in range(m):
            prod = prod * g
    assert prod == f.monic()


def test_factor_over_extension_field():
    F = FF(2, 2)
    # x^2 + x + 1 splits over F_4 into (x - w)(x - w^2)
    f = P(F, 1, 1, 1)
    factors = poly_factor(f)
    assert len(factors) == 2
    prod = Poly.one(F)
    for g, m in factors:
        assert g.degree == 1 and m == 1
        prod = prod * g
    assert prod == f


def test_squarefree_decomposition_char2():
    F = FF(2)
    # f = (x^2+x+1)^2 has zero derivative
    g = P(F, 1, 1, 1)
    f = g * g
    parts = squarefree_decomposition(f)
    assert parts == [(g, 2)]


@st.composite
def random_poly(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    F = FF(p)
    deg = draw(st.integers(min_value=1, max_value=12))
    codes = [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(deg)]
    codes.append(draw(st.integers(min_value=1, max_value=p - 1)))
    return Poly(F, codes)


@given(random_poly())
@settings(max_examples=60, deadline=None)
def test_factor_remultiplies_to_input(f):
    factors = poly_factor(f)
    prod = Poly.const(f.field, f.lead())
    for g, m in factors:
        assert is_irreducible(g)
        for _ in range(m):
            prod = prod * g
    assert prod == f


def test_gcd_basics():
    F = FF(5)
    f = P(F, 4, 0, 1)  # (x-1)(x-4)
    g = P(F, 4, 1)  # x + 4 = x - 1
    assert poly_gcd(f, g) == g.monic()


@given(random_poly())
@settings(max_examples=60, deadline=None)
def test_factor_matches_sympy_over_prime_fields(f):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    p = f.field.p
    # sympy's dense F_p polynomials are big-endian lists of residues
    lead, parts = galoistools.gf_factor([int(c) for c in f.codes[::-1]], p, ZZ)
    expected = sorted(((len(g) - 1, tuple(int(c) for c in g[::-1])), m) for g, m in parts)
    assert [(g.sort_key(), m) for g, m in poly_factor(f)] == expected
    assert int(lead) == f.lead()


def _monic_polys(F, deg):
    for tail in itertools.product(range(F.q), repeat=deg):
        yield Poly(F, tail + (1,))


@st.composite
def extension_poly(draw):
    F = FF(*draw(st.sampled_from([(2, 2), (2, 3), (3, 2)])))
    deg = draw(st.integers(min_value=1, max_value=6))
    codes = [draw(st.integers(min_value=0, max_value=F.q - 1)) for _ in range(deg)]
    codes.append(draw(st.integers(min_value=1, max_value=F.q - 1)))
    return Poly(F, codes)


@given(extension_poly())
@settings(max_examples=30, deadline=None)
def test_factor_over_extension_fields_brute_force(f):
    """Over F4, F8 and F9: the factors times the lead coefficient recover
    f, they are distinct and monic, and no monic polynomial of degree at
    most half a factor's degree divides it."""
    F = f.field
    factors = poly_factor(f)
    prod = Poly.const(F, f.lead())
    for g, m in factors:
        assert g.codes[-1] == 1
        for _ in range(m):
            prod = prod * g
        for d in range(1, g.degree // 2 + 1):
            assert all(not (g % h).is_zero() for h in _monic_polys(F, d))
    assert prod == f
    assert len({g for g, _ in factors}) == len(factors)
