"""Reference group-algebra arithmetic: tables, convolution, nullspace duals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes import linalg, oracle
from groupcodes.fields import ZERO, build_field


def test_dihedral_table_is_a_group():
    n = 7
    t = oracle.dihedral_mul_table(n)
    size = 2 * n
    # identity, associativity (spot), inverses
    assert all(t[0, g] == g and t[g, 0] == g for g in range(size))
    rng = np.random.default_rng(0)
    for _ in range(200):
        g, h, k = rng.integers(0, size, 3)
        assert t[t[g, h], k] == t[g, t[h, k]]
    for g in range(size):
        assert any(t[g, h] == 0 for h in range(size))
    # defining relations: a^n = 1, b^2 = 1, bab^-1 = a^-1
    a, b = 1, n
    x = 0
    for _ in range(n):
        x = t[x, a]
    assert x == 0
    assert t[b, b] == 0
    assert t[t[b, a], b] == n - 1


def test_quaternion_table_is_a_group():
    n = 7
    t = oracle.quaternion_mul_table(n)
    m = 2 * n
    size = 4 * n
    assert all(t[0, g] == g and t[g, 0] == g for g in range(size))
    rng = np.random.default_rng(1)
    for _ in range(200):
        g, h, k = rng.integers(0, size, 3)
        assert t[t[g, h], k] == t[g, t[h, k]]
    a, b = 1, m
    # b^2 = a^n, bab^-1 = a^-1 and the group has a unique element of order 2
    assert t[b, b] == n
    x = 0
    for _ in range(2 * n):
        x = t[x, a]
    assert x == 0
    order2 = [g for g in range(size) if g != 0 and t[g, g] == 0]
    assert order2 == [n]


@pytest.mark.parametrize("builder,n", [(oracle.dihedral_mul_table, 8),
                                       (oracle.quaternion_mul_table, 5)])
def test_convolution_matches_table_on_delta_vectors(builder, n):
    F = build_field(3, 4)
    sub = F.subfield(9)
    t = builder(n)
    size = t.shape[0]
    rng = np.random.default_rng(2)
    for _ in range(25):
        g, h = rng.integers(0, size, 2)
        u = np.zeros(size, dtype=np.int32)
        v = np.zeros(size, dtype=np.int32)
        u[g], v[h] = 3, 5
        w = oracle.group_mul(sub, t, u, v)
        expect = np.zeros(size, dtype=np.int32)
        expect[t[g, h]] = sub.index(F.mul(sub.element(3), sub.element(5)))
        assert np.array_equal(w, expect)


def scalar_group_mul(sub, table, u, v):
    """The product u v by the definition: u_g v_h added to entry gh, one
    pair of group elements at a time, in master-field arithmetic."""
    F = sub.master
    size = table.shape[0]
    vals = [sub.element(i) for i in range(sub.q)]
    w = [ZERO] * size
    for g in range(size):
        ug = vals[int(u[g])]
        if ug == ZERO:
            continue
        for h in range(size):
            vh = vals[int(v[h])]
            if vh == ZERO:
                continue
            k = int(table[g, h])
            w[k] = F.add(w[k], F.mul(ug, vh))
    return np.array([sub.index(x) for x in w], dtype=np.int32)


# (table builder, n, p, m, q): dihedral and quaternion groups over prime
# alphabets and proper subfields of their masters
_MUL_SYSTEMS = [(oracle.dihedral_mul_table, 7, 2, 2, 4),
                (oracle.dihedral_mul_table, 8, 3, 4, 9),
                (oracle.dihedral_mul_table, 5, 11, 1, 11),
                (oracle.quaternion_mul_table, 3, 5, 2, 25),
                (oracle.quaternion_mul_table, 5, 3, 2, 3)]


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(_MUL_SYSTEMS), count=st.integers(1, 4),
       zeros=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_group_mul_matches_scalar_convolution(system, count, zeros, seed):
    build, n, p, m, q = system
    sub, table = build_field(p, m).subfield(q), build(n)
    rng = np.random.default_rng(seed)
    U, V = rng.integers(0, q, (2, count, table.shape[0])).astype(np.int16)
    U[rng.random(U.shape) < zeros] = 0   # zero vectors when zeros = 1
    V[rng.random(V.shape) < zeros] = 0
    W = oracle.group_mul(sub, table, U, V)
    assert W.shape == U.shape
    for u, v, w in zip(U, V, W):
        assert np.array_equal(w, scalar_group_mul(sub, table, u, v))
        assert np.array_equal(oracle.group_mul(sub, table, u, v), w)


def test_group_mul_is_associative_on_random_vectors():
    F = build_field(3, 4)
    sub = F.subfield(9)
    t = oracle.dihedral_mul_table(6)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u, v, w = (rng.integers(0, 9, 12).astype(np.int32) for _ in range(3))
        lhs = oracle.group_mul(sub, t, oracle.group_mul(sub, t, u, v), w)
        rhs = oracle.group_mul(sub, t, u, oracle.group_mul(sub, t, v, w))
        assert np.array_equal(lhs, rhs)


def test_is_left_ideal_detects_principal_ideals_and_rejects_others():
    F = build_field(3, 4)
    sub = F.subfield(9)
    n = 8
    t = oracle.dihedral_mul_table(n)
    rng = np.random.default_rng(4)
    u = rng.integers(0, 9, 2 * n).astype(np.int32)
    # left ideal generated by u: span of all g*u
    rows = np.array([oracle.group_mul(sub, t, delta(g, 2 * n), u)
                     for g in range(2 * n)], dtype=np.int32)
    basis = linalg.row_basis(sub, rows)
    assert oracle.is_left_ideal(sub, t, basis)
    # a random 1-dim subspace is (almost surely) not an ideal
    single = linalg.row_basis(sub, u[None, :])
    assert not oracle.is_left_ideal(sub, t, single)


def delta(g, size):
    v = np.zeros(size, dtype=np.int32)
    v[g] = 1
    return v


def test_duals_have_complementary_dimension_and_orthogonality():
    F = build_field(3, 4)
    sub = F.subfield(9)
    rng = np.random.default_rng(5)
    A = linalg.row_basis(sub, rng.integers(0, 9, (4, 10)).astype(np.int32))
    for (R, pivots), power in ((oracle.euclid_dual_basis(sub, A), 1),
                               (oracle.hermitian_dual_basis(sub, A, 3), 3)):
        dual = R[:len(pivots)]
        assert dual.shape[0] == 10 - A.shape[0]
        conj = linalg.entrywise_pow(sub, dual, power)
        prod = linalg.matmul(sub, A, conj.T)
        assert not prod.any()
