"""Factorisation of x^n -+ 1 and duality-closure classification."""

from __future__ import annotations

import pytest

from groupcodes import polyfactor as pf
from groupcodes.fields import ZERO, build_field, mult_order

from helpers import conjugate_poly, product_of_factors, reciprocal_poly


def master_for(q, n, *, hermitian=False, plus=False):
    """Smallest master field containing all roots and block fields."""
    from groupcodes.fields import split_prime_power

    p, e = split_prime_power(q)
    Q = q * q if hermitian else q
    eQ = e * 2 if hermitian else e
    modulus = 2 * n if plus else n
    r = mult_order(Q, modulus)
    m = eQ * r
    if plus:
        m = e * _lcm(mult_order(q, 2 * n), 2)
    return build_field(p, m)


def _lcm(a, b):
    import math

    return a * b // math.gcd(a, b)


def x_pow_n_const(F, n, c):
    return tuple([c] + [ZERO] * (n - 1) + [F.one])


@pytest.mark.parametrize("q,n", [(9, 16), (4, 7), (25, 3), (9, 10), (11, 7), (3, 8), (2, 5)])
def test_product_recovers_x_pow_n_minus_1(q, n):
    F = master_for(q, n)
    factors = pf.factor_x_pow_n_minus_1(F, q, n)
    assert sum(f.degree for f in factors) == n
    prod = product_of_factors(F, factors)
    assert prod == x_pow_n_const(F, n, F.minus_one if F.p != 2 else F.one)
    # every claimed root really is a root
    for f in factors:
        assert pf.poly_eval(F, f.coeffs, f.root) == ZERO


@pytest.mark.parametrize("q,n", [(11, 7), (3, 8), (5, 6)])
def test_product_recovers_x_pow_n_plus_1(q, n):
    F = master_for(q, n, plus=True)
    factors = pf.factor_x_pow_n_plus_1(F, q, n)
    assert sum(f.degree for f in factors) == n
    assert product_of_factors(F, factors) == x_pow_n_const(F, n, F.one)
    for f in factors:
        assert pf.poly_eval(F, f.coeffs, f.root) == ZERO
        assert all(e % 2 == 1 for e in f.coset)


def test_plus_form_rejects_char_2():
    F = build_field(2, 4)
    with pytest.raises(ValueError):
        pf.factor_x_pow_n_plus_1(F, 4, 5)


def test_non_squarefree_rejected():
    F = build_field(3, 2)
    with pytest.raises(ValueError):
        pf.factor_x_pow_n_minus_1(F, 9, 6)


def test_reciprocal_and_conjugate_polys():
    F = master_for(9, 16, hermitian=True)
    factors = pf.factor_x_pow_n_minus_1(F, 81, 16)
    by_coset = {f.coset: f for f in factors}
    for f in factors:
        # reciprocal poly has exactly the inverse roots
        mate = by_coset[f.recip_coset()]
        assert reciprocal_poly(F, f.coeffs) == mate.coeffs
        # conjugate poly has the q-th power roots
        cmate = by_coset[f.conj_coset(9)]
        assert conjugate_poly(F, f.coeffs, 9) == cmate.coeffs


def test_cyclotomic_cosets_basic():
    assert pf.cyclotomic_cosets(9, 16) == [
        (0,), (1, 9), (2,), (3, 11), (4,), (5, 13), (6,), (7, 15),
        (8,), (10,), (12,), (14,)]
    assert pf.cyclotomic_cosets(2, 7) == [(0,), (1, 2, 4), (3, 5, 6)]
    # odd exponents mod 14 under multiplication by 11
    assert pf.cyclotomic_cosets(11, 14, range(1, 14, 2)) == [
        (1, 9, 11), (3, 5, 13), (7,)]


def euclid_kinds(q, n):
    F = master_for(q, n)
    classes = pf.classify_euclidean(pf.factor_x_pow_n_minus_1(F, q, n))
    return sorted((c.kind, c.degree) for c in classes)


def test_classify_euclidean_d10_over_gf9():
    # x^10 - 1 over GF(9): 9 = -1 mod 10, so every nontrivial orbit is
    # reciprocal-stable -> four self-reciprocal quadratics
    assert euclid_kinds(9, 10) == [
        ("minus_one", 1), ("one", 1),
        ("self_reciprocal", 2), ("self_reciprocal", 2),
        ("self_reciprocal", 2), ("self_reciprocal", 2)]


def test_classify_euclidean_q7_over_gf11():
    assert euclid_kinds(11, 7) == [("one", 1), ("reciprocal_pair", 3)]
    F = master_for(11, 7, plus=True)
    bside = pf.classify_euclidean(pf.factor_x_pow_n_plus_1(F, 11, 7))
    assert sorted((c.kind, c.degree) for c in bside) == [
        ("minus_one", 1), ("reciprocal_pair", 3)]


def test_classify_euclidean_pair_partner():
    F = master_for(11, 7)
    classes = pf.classify_euclidean(pf.factor_x_pow_n_minus_1(F, 11, 7))
    pair = [c for c in classes if c.kind == pf.RECIPROCAL_PAIR][0]
    f, mate = pair.members
    assert f is pair.f
    assert mate.coset == f.recip_coset()
    assert min(f.coset) < min(mate.coset)


def hermitian_kinds(q, n):
    F = master_for(q, n, hermitian=True)
    classes = pf.classify_hermitian(pf.factor_x_pow_n_minus_1(F, q * q, n), q)
    return sorted((c.kind, c.degree) for c in classes)


def test_classify_hermitian_d16_over_gf81():
    assert hermitian_kinds(3, 16) == [
        ("both_fixed", 1), ("both_fixed", 1),
        ("cross_fixed", 1),
        ("free", 1), ("free", 2)]


def test_classify_hermitian_d7_over_gf4():
    assert hermitian_kinds(2, 7) == [("both_fixed", 1), ("conj_fixed", 3)]


def test_classify_hermitian_d3_over_gf25():
    assert hermitian_kinds(5, 3) == [("both_fixed", 1), ("cross_fixed", 1)]


def test_classify_hermitian_d10_over_gf9():
    kinds = hermitian_kinds(3, 10)
    assert kinds.count(("both_fixed", 1)) == 2
    F = master_for(3, 10, hermitian=True)
    classes = pf.classify_hermitian(pf.factor_x_pow_n_minus_1(F, 9, 10), 3)
    assert sum(m.degree for c in classes for m in c.members) == 10


def test_hermitian_members_closed():
    F = master_for(3, 16, hermitian=True)
    factors = pf.factor_x_pow_n_minus_1(F, 9, 16)
    classes = pf.classify_hermitian(factors, 3)
    cosets = {f.coset for f in factors}
    seen = set()
    for c in classes:
        for m in c.members:
            assert m.coset in cosets and m.coset not in seen
            seen.add(m.coset)
        # class is closed under both involutions
        member_cosets = {m.coset for m in c.members}
        for m in c.members:
            assert m.recip_coset() in member_cosets
            assert m.conj_coset(3) in member_cosets
    assert seen == cosets
