"""Dihedral group-algebra decompositions: structure, homomorphism, round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupcodes import dihedral_algebra as da
from groupcodes import linalg, oracle
from groupcodes import quaternion_algebra as qa
from groupcodes.fields import (ZERO, mult_order, solve_sum_of_squares,
                               split_prime_power, sqrt_minus_one)

from helpers import (m2_det, random_slot_value, reference_inverse,
                     reference_theta_map, reference_transport,
                     selfrec_basis_change, slot_pow, slot_zero)

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
        alpha = b.slots[0].root
        z = selfrec_basis_change(F, alpha, F.one)
        assert m2_det(F, z) == F.sub(alpha, F.inv(alpha))
        assert b.data["t"] == F.add(alpha, F.inv(alpha))
        assert b.slots[0].field.contains(b.data["t"])
        assert not b.slots[0].field.contains(alpha)
        # the a-image has trace t and determinant 1
        gen_a = b.slots[0].gen_a
        assert F.add(gen_a[0], gen_a[3]) == b.data["t"]
        assert m2_det(F, gen_a) == F.one


def _check_closed_forms(dec) -> int:
    """Compare each self-reciprocal slot's closed-form images with their
    derivations: z^(-1) diag(alpha, alpha^-1) z and z^(-1) [[0, c], [c, 0]] z
    for the selfrec, recip_fixed and b_selfrec_split kinds (c = i in the
    last), the twisted rewriting of diag(beta, beta^-1) and [[0, i], [i, 0]]
    for b_selfrec_skew.  Returns the number of slots compared."""
    F, compared = dec.F, 0
    for b in dec.blocks:
        for s in b.slots:
            r, rinv = s.root, F.inv(s.root)
            if b.kind in (da.SELFREC, "recip_fixed", qa.B_SELFREC_SPLIT):
                c = (sqrt_minus_one(F.subfield(dec.Q ** 2))
                     if b.kind == qa.B_SELFREC_SPLIT else F.one)
                z = selfrec_basis_change(F, r, c)
                assert s.gen_a == reference_transport(F, z, (r, ZERO, ZERO, rinv))
                assert s.gen_b == reference_transport(F, z, (ZERO, c, c, ZERO))
            elif b.kind == qa.B_SELFREC_SKEW:
                i = sqrt_minus_one(F.subfield(dec.Q ** 2))
                u, v = solve_sum_of_squares(s.field, F.minus_one)
                theta = lambda x: reference_theta_map(F, s.field, i, u, v, x)
                assert s.gen_a == theta((r, ZERO, ZERO, rinv))
                assert s.gen_b == theta((ZERO, i, i, ZERO))
            else:
                continue
            compared += 1
    return compared


@pytest.mark.parametrize("system", [
    ("dihedral", 5, 9, da.EUCLIDEAN), ("dihedral", 5, 9, da.HERMITIAN),
    ("dihedral", 10, 9, da.EUCLIDEAN), ("dihedral", 10, 9, da.HERMITIAN),
    ("quaternion", 3, 11, da.EUCLIDEAN), ("quaternion", 5, 3, da.EUCLIDEAN),
    ("quaternion", 15, 23, da.EUCLIDEAN)])
def test_closed_form_images_match_their_derivations(system):
    # every system of the tier-1 suite with a self-reciprocal block
    assert _check_closed_forms(_build(*system)) > 0


@settings(max_examples=15, deadline=None)
@given(system=st.tuples(st.sampled_from(["dihedral", "quaternion"]),
                        st.integers(1, 16),
                        st.sampled_from([3, 4, 5, 7, 9, 11, 19, 23, 25]),
                        st.sampled_from([da.EUCLIDEAN, da.HERMITIAN])))
def test_closed_form_images_match_their_derivations_drawn(system):
    # random dihedral and quaternion systems; the refused ones are skipped
    assume(_buildable(*system))
    _check_closed_forms(_build(*system))


def test_slot_flatten_round_trip():
    # rho o rho_inv on random values of every slot, and rho_inv o rho on
    # the elements they give; the systems hold field, c2 and 2x2 slots
    kinds = set()
    rng = np.random.default_rng(9)
    for n, Q, mode in [(16, 9, da.HERMITIAN), (7, 4, da.EUCLIDEAN),
                       (10, 9, da.EUCLIDEAN), (3, 25, da.HERMITIAN)]:
        dec = dec_for(n, Q, mode)
        kinds |= {s.kind for s in dec.slots()}
        values = [[random_slot_value(s, rng) for s in dec.slots()]
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


@pytest.mark.parametrize("build,fields", [
    (lambda: dec_for(16, 9, da.HERMITIAN), [9, 81]),
    (lambda: qa.build_quaternion_decomposition(7, 11), [11, 1331, 121])])
def test_one_power_basis_per_block_field(build, fields):
    # every slot over a block field holds that field's one PowerBasis, on
    # both sides of Q_7, and the per-field grouping reads exactly those
    dec = build()
    bases = {s.field: s.basis for s in dec.slots()}
    assert [K.q for K in bases] == fields
    assert all(s.basis is bases[s.field] for s in dec.slots())
    assert [basis for basis, *_ in dec.by_field] == list(bases.values())


@pytest.mark.parametrize("length,e,refused", [
    (4094, 1, False),   # GF(2)[D_2047]: 16,760,836 cells
    (510, 8, False),    # GF(256)[D_255]: 4080^2 = 16,646,400 cells
    (2048, 2, False),   # 4096^2, the budget itself
    (4100, 1, True),    # GF(7)[Q_1025]
    (2730, 6, True),    # GF(64)[D_1365]
    (2730, 12, True)])  # GF(4096)[D_1365]
def test_check_maps_at_the_budget_edge(length, e, refused):
    if refused:
        with pytest.raises(ValueError, match=f"{length * e} x {length * e} "
                           f"block maps exceed the budget of 16777216"):
            da._check_maps(length, e)
    else:
        da._check_maps(length, e)


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
    # their master fields.  mat itself against its layout: row i (and
    # a_order + i) holds, slot by slot, the slot's own flatten of a^i (and
    # of a^i b) in its ring
    dec = _build(*system)
    assert np.array_equal(dec.mat_inv, reference_inverse(dec.alphabet,
                                                         dec.mat))
    for s in dec.slots():
        a_pow = [slot_pow(s, s.gen_a, i) for i in range(dec.a_order)]
        images = a_pow + [da.slot_mul(s, x, s.gen_b) for x in a_pow]
        flat = s.basis.flatten(images).reshape(dec.length, s.width)
        assert np.array_equal(dec.mat[:, s.offset:s.offset + s.width], flat)


@pytest.mark.parametrize("group,table", [
    ("dihedral", oracle.dihedral_mul_table),
    ("quaternion", oracle.quaternion_mul_table)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9])
def test_inverses_by_index_arithmetic(group, table, n):
    a_order = 2 * n if group == "quaternion" else n
    mul = table(n)
    inv = da._inverses(a_order, a_order // 2 if group == "quaternion" else 0)
    g = np.arange(2 * a_order)
    assert (mul[g, inv] == 0).all() and (mul[inv, g] == 0).all()

