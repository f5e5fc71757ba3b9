"""The acceptance gate: every criterion runs at its stated tolerance and
prints one line.  All checks are exact (integer/field equalities); the
only tolerances are wall-clock budgets, asserted per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import dataclasses
import time

import numpy as np
import pytest

from orbitcat import checks


def _report(num, name, passed, budget, elapsed, details):
    status = "PASS" if passed else "FAIL"
    print(
        f"ACCEPTANCE {num} [{status}] {name}: {details}  "
        f"({elapsed:.2f}s, budget {budget}s)"
    )


def _run(num, name, fn, budget, **kw):
    t0 = time.time()
    result = fn(**kw)
    elapsed = time.time() - t0
    _report(num, name, result.passed, budget, elapsed, result.details)
    assert result.passed, result.details
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s > {budget}s"
    return result


def test_acceptance_1_mat2_orbit_end():
    """Mat2(F5) with C2 swap-conjugation: orbit End of the simple module is
    exactly 2-dimensional, splits into 2 orthogonal primitive idempotents,
    and the completion yields 2 non-isomorphic indecomposable summands."""
    r = _run(1, "mat2 swap orbit end", checks.check_mat2_orbit_end, 1.0)
    assert r.data["end_dim"] == 2
    assert r.data["summands"] == 2


def test_acceptance_2_kronecker_arrow_swap():
    """Kronecker algebra over F5 with the arrow swap: both simples fixed,
    inertia C2 each, pipeline completes with all stage-2 certificates local."""
    _run(2, "kronecker arrow swap", checks.check_kronecker_arrow_swap, 1.0)


def test_acceptance_3_f7c3_split_extension():
    """F7 C3 with C2 inversion: (a) the nontrivial character has trivial
    inertia and stays indecomposable; (b) the trivial module splits into two
    summands with n_1 = n_2 = 1 summing to the inertia order; (c) the skew
    group algebra oracle agrees on all signatures."""
    _run(3, "F7C3 + C2 inversion with oracle", checks.check_f7c3_clifford, 2.0)


def test_acceptance_4_f3c3_modular():
    """F3 C3 with C2 inversion (modular characteristic, coprime index): the
    pipeline passes on all three indecomposables (dims 1, 2, 3) and the skew
    algebra oracle agrees."""
    _run(4, "F3C3 modular coprime index", checks.check_f3c3_modular, 2.0)


def test_acceptance_5_adjunction_laws():
    """Adjunction law suite: triangle identities (the one for S also
    splits the counit pointwise), phi/psi mutual inversion and
    twist-fixes-classes hold exactly on >= 50 samples across >= 4 algebras
    and groups C2, C3, C4, C2xC2; Frobenius reciprocity holds on every
    pair of indecomposables."""
    r = _run(5, "adjunction law suite", checks.check_adjunction_laws, 10.0,
             seed=0, min_samples=50)
    assert r.data["samples"] >= 50


def test_adjunction_laws_catch_a_wrong_counit(monkeypatch):
    """One counit entry off by 1 breaks the triangle identity for S."""
    real = checks.adjunction_counit

    def shifted(X, action):
        eps = real(X, action)
        stack = eps.stack.copy()
        at = (0,) * stack.ndim
        stack[at] = X.field.add(int(stack[at]), 1)
        return eps.with_stack(stack)

    monkeypatch.setattr(checks, "adjunction_counit", shifted)
    r = checks.check_adjunction_laws(seed=0, min_samples=7)
    assert not r.passed
    assert "'triangle-S'" in r.details


def test_adjunction_laws_catch_a_wrong_orbit_hom(monkeypatch):
    """An orbit hom space missing its last component disagrees with
    Frobenius reciprocity over the skew group algebra."""
    real = checks.orbit_hom

    def truncated(X, Y, action, support=None):
        space = real(X, Y, action, support)
        comps = dict(space.components)
        last = space.support[-1]
        comps[last] = dataclasses.replace(comps[last], basis=[])
        return dataclasses.replace(space, components=comps)

    monkeypatch.setattr(checks, "orbit_hom", truncated)
    r = checks.check_adjunction_laws(seed=0, min_samples=7)
    assert not r.passed
    assert "'hom-formula'" in r.details


def test_laws_and_factorization_build_each_algebra_pool_once(monkeypatch):
    """check_adjunction_laws builds one indecomposable pool per corpus
    algebra (five: Mat2/F5 carries three actions), and
    check_subgroup_factorization one for its two actions on Mat2/F5."""
    real = checks.indecomposable_pool
    built = []

    def counting(A):
        built.append(A)
        return real(A)

    monkeypatch.setattr(checks, "indecomposable_pool", counting)
    assert checks.check_adjunction_laws(seed=0, min_samples=7).passed
    assert len(built) == 5 and len({id(A) for A in built}) == 5
    built.clear()
    assert checks.check_subgroup_factorization(seed=0).passed
    assert len(built) == 1


def test_acceptance_6_subgroup_factorization():
    """Subgroup factorization: S and T factor exactly through every subgroup
    of C4 and C2 x C2 on sampled data; adjuster coherence holds exhaustively."""
    _run(6, "subgroup factorization", checks.check_subgroup_factorization, 5.0)


def test_acceptance_7_galois_scenario():
    """Galois scenario q=3, M=F81, L=F9, G=C4, H=C2: restriction of the
    regular module is free of rank 4 and the monad composition matches
    Delta x G/H = C2 x C2."""
    r = _run(7, "galois tower F81/F9/F3", checks.check_galois_scenario, 2.0)
    assert r.data["rank"]["rank"] == 4
    assert r.data["monad"]["element_orders"] == [1, 2, 2, 2]


def test_acceptance_8_counit_split_criterion():
    """Split-counit criterion: true whenever the characteristic is prime to
    the group order; false on the designated p=2, C2 witness."""
    _run(8, "counit split criterion", checks.check_counit_split_criterion, 1.0)


def test_acceptance_9_krull_schmidt_engine():
    """Krull-Schmidt engine soundness: >= 100 randomized modules of dim <= 12
    decompose with local-End certificates and exact witness identities; the
    multiset is additive over direct sums and a brute-force minimal-polynomial
    oracle agrees."""
    r = _run(9, "krull-schmidt engine", checks.check_krull_schmidt_engine, 30.0,
             seed=0, n_modules=100)
    assert r.data["count"] >= 100
