"""Dihedral group-algebra decompositions: structure, homomorphism, round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcodes import dihedral_algebra as da
from groupcodes import linalg, oracle
from groupcodes import quaternion_algebra as qa
from groupcodes.fields import ZERO, mult_order, split_prime_power

from helpers import reference_inverse, slot_pow, slot_zero

SYSTEMS = [(16, 9), (7, 4), (3, 25), (10, 9), (5, 9)]

_cache: dict = {}


def dec_for(n, Q, mode):
    key = (n, Q, mode)
    if key not in _cache:
        _cache[key] = da.build_dihedral_decomposition(n, Q, mode)
    return _cache[key]


def random_vec(dec, rng):
    return rng.integers(0, dec.Q, dec.length).astype(np.int32)


# ---------------------------------------------------------------------------
# block structure


def test_euclid_structure_d16_f9():
    dec = dec_for(16, 9, da.EUCLIDEAN)
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.FIELD_PAIR, da.FIELD_PAIR] + [da.RECIP_PAIR] * 5
    assert sum(b.width for b in dec.blocks) == 32
    fields = sorted(b.slots[0].field.q for b in dec.blocks[2:])
    assert fields == [9, 9, 9, 81, 81]


def test_hermitian_structure_d16_f9():
    dec = dec_for(16, 9, da.HERMITIAN)
    assert dec.q == 3
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.FIELD_PAIR, da.FIELD_PAIR, "cross_fixed", "free", "free"]
    assert [b.data.get("r") for b in dec.blocks[2:]] == [1, 2, 1]
    assert [s.field.q for b in dec.blocks[2:] for s in b.slots] == [9, 81, 81, 9, 9]
    # the cross-fixed slot's eigenvalue has order 4 (the factors are x -+ i)
    alpha = dec.blocks[2].slots[0].root
    assert dec.F.pow(alpha, 2) == dec.F.minus_one


def test_hermitian_structure_d7_f4():
    dec = dec_for(7, 4, da.HERMITIAN)
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.C2_BLOCK, "conj_fixed"]
    assert dec.blocks[1].slots[0].field.q == 64
    assert dec.length == 14


def test_hermitian_structure_d3_f25():
    dec = dec_for(3, 25, da.HERMITIAN)
    assert [b.kind for b in dec.blocks] == [da.FIELD_PAIR, "cross_fixed"]
    assert dec.blocks[1].slots[0].field.q == 25


def test_hermitian_structure_d10_f9():
    dec = dec_for(10, 9, da.HERMITIAN)
    kinds = [b.kind for b in dec.blocks]
    assert kinds == [da.FIELD_PAIR, da.FIELD_PAIR, "recip_fixed", "recip_fixed"]
    for b in dec.blocks[2:]:
        assert len(b.slots) == 2 and all(s.field.q == 9 for s in b.slots)
        # conjugated copy really is conjugated
        assert b.data["t_conj"] == dec.F.pow(b.data["t"], 3)


def test_euclid_structure_d7_f4_char2():
    dec = dec_for(7, 4, da.EUCLIDEAN)
    assert [b.kind for b in dec.blocks] == [da.C2_BLOCK, da.RECIP_PAIR]
    assert dec.blocks[1].slots[0].field.q == 64


# ---------------------------------------------------------------------------
# generator relations and multiplicativity


@pytest.mark.parametrize("n,Q", SYSTEMS)
@pytest.mark.parametrize("mode", [da.EUCLIDEAN, da.HERMITIAN])
def test_generator_relations(n, Q, mode):
    dec = dec_for(n, Q, mode)
    for s in dec.slots():
        one = da.slot_one(s)
        assert slot_pow(s, s.gen_a, n) == one
        assert da.slot_mul(s, s.gen_b, s.gen_b) == one
        bab = da.slot_mul(s, da.slot_mul(s, s.gen_b, s.gen_a), s.gen_b)
        assert bab == slot_pow(s, s.gen_a, n - 1)


@pytest.mark.parametrize("n,Q", SYSTEMS)
@pytest.mark.parametrize("mode", [da.EUCLIDEAN, da.HERMITIAN])
def test_rho_is_multiplicative(n, Q, mode):
    dec = dec_for(n, Q, mode)
    table = oracle.dihedral_mul_table(n)
    rng = np.random.default_rng(n * Q)
    for _ in range(8):
        u, v = random_vec(dec, rng), random_vec(dec, rng)
        w = oracle.group_mul(dec.alphabet, table, u, v)
        lhs, ru, rv = dec.rho(np.stack([w, u, v]))
        rhs = [da.slot_mul(s, x, y) for s, x, y in zip(dec.slots(), ru, rv)]
        assert lhs == rhs


@pytest.mark.parametrize("n,Q", SYSTEMS)
@pytest.mark.parametrize("mode", [da.EUCLIDEAN, da.HERMITIAN])
def test_round_trip(n, Q, mode):
    dec = dec_for(n, Q, mode)
    rng = np.random.default_rng(17 * n + Q)
    U = np.array([random_vec(dec, rng) for _ in range(5)])
    assert np.array_equal(dec.rho_inv(dec.rho(U)), U)
    ident = np.eye(dec.length, dtype=np.int32)  # index 1 is the element one
    assert np.array_equal(linalg.matmul(dec.alphabet, dec.mat_inv, dec.mat), ident)
    assert np.array_equal(linalg.matmul(dec.alphabet, dec.mat, dec.mat_inv), ident)


def test_identity_element_maps_to_all_ones():
    dec = dec_for(16, 9, da.HERMITIAN)
    e = np.zeros(32, dtype=np.int32)
    e[0] = 1  # the group identity with coefficient 1
    vals, = dec.rho(e[None])
    assert vals == [da.slot_one(s) for s in dec.slots()]


# ---------------------------------------------------------------------------
# root overrides and input validation


def test_root_override_changes_slot_root():
    F = dec_for(16, 9, da.HERMITIAN).F
    zeta = F.nth_root_of_unity(16)
    want = F.pow(zeta, 12)
    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN,
                                          root_choices={(4,): want})
    assert dec.blocks[2].kind == "cross_fixed"
    assert dec.blocks[2].slots[0].root == want


def test_root_override_rejects_non_roots():
    with pytest.raises(ValueError, match="not a root"):
        da.build_dihedral_decomposition(16, 9, da.HERMITIAN,
                                        root_choices={(4,): 0})


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="square"):
        da.build_dihedral_decomposition(5, 8, da.HERMITIAN)
    with pytest.raises(ValueError, match="characteristic"):
        da.build_dihedral_decomposition(9, 9)
    with pytest.raises(ValueError, match="mode"):
        da.build_dihedral_decomposition(5, 9, "unitary")


# ---------------------------------------------------------------------------
# slot internals


def test_selfrec_block_data():
    dec = dec_for(10, 9, da.HERMITIAN)
    F = dec.F
    for b in dec.blocks[2:]:
        z = b.data["z"]
        alpha = b.slots[0].root
        assert da.m2_det(F, z) == F.sub(alpha, F.inv(alpha))
        assert b.data["t"] == F.add(alpha, F.inv(alpha))
        assert b.slots[0].field.contains(b.data["t"])
        assert not b.slots[0].field.contains(alpha)


def _random_slot_value(s, rng):
    entries = tuple(s.field.element(int(i))
                    for i in rng.integers(0, s.field.q, s.ncomp))
    return entries[0] if s.kind == da.FIELD_SLOT else entries


def test_slot_flatten_round_trip():
    # rho o rho_inv on random values of every slot, and rho_inv o rho on
    # the elements they give; the systems hold field, c2 and 2x2 slots
    kinds = set()
    rng = np.random.default_rng(9)
    for n, Q, mode in [(16, 9, da.HERMITIAN), (7, 4, da.EUCLIDEAN),
                       (10, 9, da.EUCLIDEAN), (3, 25, da.HERMITIAN)]:
        dec = dec_for(n, Q, mode)
        kinds |= {s.kind for s in dec.slots()}
        values = [[_random_slot_value(s, rng) for s in dec.slots()]
                  for _ in range(6)]
        U = dec.rho_inv(values)
        assert dec.rho(U) == values
        assert np.array_equal(dec.rho_inv(dec.rho(U)), U)
    assert kinds == {da.FIELD_SLOT, da.C2_SLOT, da.MAT_SLOT}


@pytest.mark.parametrize("n,Q,mode", [(16, 9, da.HERMITIAN), (7, 4, da.EUCLIDEAN)])
def test_rho_of_zero_rows(n, Q, mode):
    dec = dec_for(n, Q, mode)
    zeros = [slot_zero(s) for s in dec.slots()]
    assert dec.rho(np.zeros((2, dec.length), dtype=np.int32)) == [zeros] * 2
    assert np.array_equal(dec.rho_inv([zeros]),
                          np.zeros((1, dec.length), dtype=np.int32))
    # no rows at all
    assert dec.rho(np.zeros((0, dec.length), dtype=np.int32)) == []
    assert dec.rho_inv([]).shape == (0, dec.length)


def test_one_elimination_per_block_field(monkeypatch):
    calls = []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda sub, A: calls.append(A.shape) or original(sub, A))
    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
    fields = {s.field.q for s in dec.slots()}
    assert len(fields) < len(dec.blocks)  # blocks share their fields
    # one change of basis per field; mat_inv is Fourier inversion, so the
    # elimination of [mat | I] that inverted mat is gone
    assert len(calls) == len(fields)


def test_long_algebra_has_no_length_wide_elimination(monkeypatch):
    # GF(2)[D_255], length 510: only the changes of basis of its block
    # fields are eliminated, each a few columns wide
    calls = []
    original = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda sub, A: calls.append(A.shape) or original(sub, A))
    dec = da.build_dihedral_decomposition(255, 2)
    assert len(calls) == len({s.field.q for s in dec.slots()})
    assert max(cols for *_, cols in calls) < dec.length


# ---------------------------------------------------------------------------
# the inverse block map


def _master_order(group, n, Q):
    p, e = split_prime_power(Q)
    if group == "quaternion":
        return p ** (e * math.lcm(mult_order(Q, 2 * n), 2))
    return p ** (e * mult_order(Q, n))


def _buildable(group, n, Q, mode):
    p, e = split_prime_power(Q)
    if math.gcd(p, n) != 1 or (mode == da.HERMITIAN and e % 2):
        return False
    if group == "quaternion" and (n < 2 or n % 2 == 0 or Q % 4 != 3):
        return False
    return _master_order(group, n, Q) <= 2 ** 16


def _build(group, n, Q, mode):
    if group == "quaternion":
        return qa.build_quaternion_decomposition(n, Q)
    return da.build_dihedral_decomposition(n, Q, mode)


# ROADMAP item 12's systems: hermitian, euclidean, and Q_n, whose mode is
# euclidean
_NAMED = ([("dihedral", n, Q, da.HERMITIAN)
           for n, Q in [(7, 4), (10, 9), (16, 9), (21, 4), (11, 25)]]
          + [("dihedral", n, Q, da.EUCLIDEAN)
             for n, Q in [(1, 3), (7, 2), (12, 5), (40, 7), (255, 2)]]
          + [("quaternion", n, Q, da.EUCLIDEAN)
             for n, Q in [(5, 3), (7, 11), (15, 23)]])


def _with_named(test):
    for system in reversed(_NAMED):
        test = example(system=system)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(system=st.tuples(st.sampled_from(["dihedral", "quaternion"]),
                        st.integers(1, 24),
                        st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 16, 19,
                                         23, 25, 27]),
                        st.sampled_from([da.EUCLIDEAN, da.HERMITIAN]))
       .filter(lambda system: _buildable(*system)))
@_with_named
def test_mat_inv_equals_the_elimination(system):
    # the closed form against Gauss-Jordan on [mat | I], entry for entry:
    # random draws of both groups and metrics, odd and even n, the c2
    # blocks of characteristic 2 and Q_n over q = 3 (mod 4), with master
    # fields of at most 2^16 elements; and the named systems, whatever
    # their master fields
    dec = _build(*system)
    assert np.array_equal(dec.mat_inv, reference_inverse(dec.alphabet,
                                                         dec.mat))


@pytest.mark.parametrize("group,table", [
    ("dihedral", oracle.dihedral_mul_table),
    ("quaternion", oracle.quaternion_mul_table)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9])
def test_inverses_by_index_arithmetic(group, table, n):
    a_order = 2 * n if group == "quaternion" else n
    mul = table(n)
    inv = da._inverses(a_order, group)
    g = np.arange(2 * a_order)
    assert (mul[g, inv] == 0).all() and (mul[inv, g] == 0).all()

