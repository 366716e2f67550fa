"""Generalised-quaternion group-algebra decompositions."""

from __future__ import annotations

import numpy as np
import pytest

from groupcodes import dihedral_algebra as da
from groupcodes import quaternion_algebra as qa
from groupcodes import oracle
from groupcodes.fields import ZERO, sqrt_minus_one

_cache: dict = {}

SYSTEMS = [(7, 11), (3, 11), (5, 3)]


def dec_for(n, q):
    if (n, q) not in _cache:
        _cache[n, q] = qa.build_quaternion_decomposition(n, q)
    return _cache[n, q]


# ---------------------------------------------------------------------------
# block structure


def test_structure_q7_f11():
    dec = dec_for(7, 11)
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.FIELD_PAIR, da.RECIP_PAIR, qa.B_UNIT, qa.B_PAIR]
    assert [s.field.q for b in dec.blocks for s in b.slots] == \
        [11, 11, 1331, 121, 1331]
    assert dec.length == 28 and dec.a_order == 14
    # rotation eigenvalues: order 7 on the plain side, order 14 on the twisted
    F = dec.F
    assert F.pow(dec.blocks[1].slots[0].root, 7) == F.one
    beta = dec.blocks[3].slots[0].root
    assert F.pow(beta, 7) == F.minus_one


def test_structure_q3_f11_skew():
    dec = dec_for(3, 11)
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.FIELD_PAIR, da.SELFREC, qa.B_UNIT, qa.B_SELFREC_SKEW]
    assert dec.length == 12
    blk = dec.blocks[3]
    F = dec.F
    u, v = blk.data["u"], blk.data["v"]
    assert F.add(F.mul(u, u), F.mul(v, v)) == F.minus_one
    assert dec.alphabet.contains(u) and dec.alphabet.contains(v)


def test_structure_q5_f3_split():
    dec = dec_for(5, 3)
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.FIELD_PAIR, da.SELFREC, qa.B_UNIT, qa.B_SELFREC_SPLIT]
    assert dec.length == 20
    assert dec.blocks[3].slots[0].field.q == 9
    i = dec.blocks[3].data["i"]
    assert dec.F.mul(i, i) == dec.F.minus_one


def test_b_unit_slot_is_square_root_of_minus_one():
    for n, q in SYSTEMS:
        dec = dec_for(n, q)
        blocks = [b for b in dec.blocks if b.kind == qa.B_UNIT]
        assert len(blocks) == 1
        s = blocks[0].slots[0]
        assert s.field.q == q * q
        assert dec.F.mul(s.gen_b, s.gen_b) == dec.F.minus_one
        assert s.gen_a == dec.F.minus_one


# ---------------------------------------------------------------------------
# relations and multiplicativity


@pytest.mark.parametrize("n,q", SYSTEMS)
def test_generator_relations(n, q):
    dec = dec_for(n, q)
    for s in dec.slots():
        one = da.slot_one(s)
        a2n = da.slot_pow(s, s.gen_a, 2 * n)
        assert a2n == one
        bb = da.slot_mul(s, s.gen_b, s.gen_b)
        assert bb == da.slot_pow(s, s.gen_a, n)
        # b a = a^{-1} b
        lhs = da.slot_mul(s, s.gen_b, s.gen_a)
        rhs = da.slot_mul(s, da.slot_pow(s, s.gen_a, 2 * n - 1), s.gen_b)
        assert lhs == rhs


@pytest.mark.parametrize("n,q", SYSTEMS)
def test_psi_is_multiplicative(n, q):
    dec = dec_for(n, q)
    table = oracle.quaternion_mul_table(n)
    rng = np.random.default_rng(n * q)
    for _ in range(8):
        u = rng.integers(0, q, dec.length).astype(np.int32)
        v = rng.integers(0, q, dec.length).astype(np.int32)
        w = oracle.group_mul(dec.alphabet, table, u, v)
        lhs, ru, rv = dec.rho(np.stack([w, u, v]))
        rhs = [da.slot_mul(s, x, y) for s, x, y in zip(dec.slots(), ru, rv)]
        assert lhs == rhs


@pytest.mark.parametrize("n,q", SYSTEMS)
def test_round_trip(n, q):
    dec = dec_for(n, q)
    rng = np.random.default_rng(3 * n + q)
    U = rng.integers(0, q, (5, dec.length)).astype(np.int32)
    assert np.array_equal(dec.rho_inv(dec.rho(U)), U)


# ---------------------------------------------------------------------------
# delegation and rejection


@pytest.mark.parametrize("n,q", [(7, 5), (4, 11), (7, 9)])
def test_delegates_when_algebra_untwists(n, q):
    with pytest.raises(qa.DelegateToDihedral) as info:
        qa.build_quaternion_decomposition(n, q)
    assert info.value.dihedral_n == 2 * n
    assert info.value.q == q


def test_char_two_rejected():
    with pytest.raises(ValueError, match="odd characteristic"):
        qa.build_quaternion_decomposition(3, 4)


def test_char_dividing_order_rejected():
    with pytest.raises(ValueError, match="characteristic"):
        qa.build_quaternion_decomposition(11, 11)


# ---------------------------------------------------------------------------
# the quaternion-to-matrix change of coordinates


def test_theta_map_domain_check():
    dec = dec_for(3, 11)
    blk = dec.blocks[3]
    F = dec.F
    half = blk.slots[0].field
    i, u, v = blk.data["i"], blk.data["u"], blk.data["v"]
    ext = F.subfield(half.q ** 2)
    w, z = ext.gen, ext.element(3)
    good = (w, z, F.neg(F.pow(z, half.q)), F.pow(w, half.q))
    out = qa.theta_map(F, half, i, u, v, good)
    assert all(c == ZERO or half.contains(c) for c in out)
    bad = (w, z, z, w)
    with pytest.raises(ValueError, match="twisted"):
        qa.theta_map(F, half, i, u, v, bad)


def test_theta_map_is_multiplicative():
    dec = dec_for(3, 11)
    blk = dec.blocks[3]
    F = dec.F
    half = blk.slots[0].field
    i, u, v = blk.data["i"], blk.data["u"], blk.data["v"]
    ext = F.subfield(half.q ** 2)
    rng = np.random.default_rng(5)

    def rand_point():
        w = ext.element(int(rng.integers(0, ext.q)))
        z = ext.element(int(rng.integers(0, ext.q)))
        return (w, z, F.neg(F.pow(z, half.q)), F.pow(w, half.q))

    for _ in range(10):
        x, y = rand_point(), rand_point()
        prod = da.m2_mul(F, x, y)
        lhs = qa.theta_map(F, half, i, u, v, prod)
        rhs = da.m2_mul(F, qa.theta_map(F, half, i, u, v, x),
                        qa.theta_map(F, half, i, u, v, y))
        assert lhs == rhs
