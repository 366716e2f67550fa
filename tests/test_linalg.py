"""Table-driven linear algebra, cross-checked with integer arithmetic mod p."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes import linalg
from groupcodes.fields import ZERO, build_field


def gf(q):
    if q == 5:
        return build_field(5, 1).subfield(5)
    if q == 9:
        return build_field(3, 2).subfield(9)
    if q == 4:
        return build_field(2, 2).subfield(4)
    raise ValueError(q)


def random_idx(rng, S, shape):
    return rng.integers(0, S.q, size=shape).astype(S.add_t.dtype)


def test_matmul_against_mod_p():
    # GF(5) indices: index 0 -> 0, index i -> 3^(i-1) mod 5 (gen of GF(5)* from x+2)
    S = gf(5)
    to_int = np.array([0] + [pow(3, k, 5) for k in range(4)])
    from_int = {v: i for i, v in enumerate(to_int)}
    rng = np.random.default_rng(7)
    for _ in range(25):
        A = random_idx(rng, S, (4, 6))
        B = random_idx(rng, S, (6, 3))
        C = linalg.matmul(S, A, B)
        C_int = to_int[A] @ to_int[B] % 5
        assert (to_int[C] == C_int).all()


def test_gen_is_its_own_dlog_base():
    # spot-check the GF(5) index convention used above
    S = gf(5)
    F = S.master
    assert F.prime_coords(S.element(2))[0] == 3  # gen = root of x+2 = -2 = 3


@pytest.mark.parametrize("q", [4, 5, 9])
def test_rref_properties(q):
    S = gf(q)
    rng = np.random.default_rng(q)
    for _ in range(30):
        A = random_idx(rng, S, (rng.integers(1, 6), rng.integers(1, 8)))
        R, pivots = linalg.rref(S, A)
        r = len(pivots)
        # pivot structure
        for i, c in enumerate(pivots):
            assert R[i, c] == 1
            col = R[:, c].copy()
            col[i] = 0
            assert not col.any()
            assert not R[i, :c].any()
        assert not R[r:].any()
        # same row space
        assert linalg.row_space_equal(S, A, R[:r])
        assert linalg.rank(S, A) == r


@pytest.mark.parametrize("q", [4, 5, 9])
def test_nullspace(q):
    S = gf(q)
    rng = np.random.default_rng(10 + q)
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        A = random_idx(rng, S, (n, m))
        N = linalg.nullspace(S, A)
        assert N.shape[0] == m - linalg.rank(S, A)
        if N.shape[0]:
            prod = linalg.matmul(S, A, N.T)
            assert not prod.any()
            assert linalg.rank(S, N) == N.shape[0]


@pytest.mark.parametrize("q", [5, 9])
def test_inverse(q):
    S = gf(q)
    rng = np.random.default_rng(q * 3)
    found = 0
    while found < 10:
        A = random_idx(rng, S, (4, 4))
        if linalg.rank(S, A) < 4:
            continue
        found += 1
        Ainv = linalg.inverse(S, A)
        eye = np.zeros((4, 4), dtype=A.dtype)
        eye[np.arange(4), np.arange(4)] = 1
        assert (linalg.matmul(S, A, Ainv) == eye).all()
        assert (linalg.matmul(S, Ainv, A) == eye).all()
    with pytest.raises(ValueError):
        linalg.inverse(S, np.zeros((3, 3), dtype=A.dtype))


def test_membership_and_equality():
    S = gf(9)
    rng = np.random.default_rng(1)
    A = random_idx(rng, S, (3, 7))
    R, piv = linalg.rref(S, A)
    # every random combination of rows of A is in the row space
    for _ in range(20):
        coeff = random_idx(rng, S, (1, 3))
        v = linalg.matmul(S, coeff, A)[0]
        assert linalg.in_row_space(S, R, piv, v)
    assert linalg.row_space_contains(S, A, A)
    # a vector outside (extend rank) is rejected
    B = np.vstack([A, random_idx(rng, S, (4, 7))])
    full, fpiv = linalg.rref(S, B)
    extra = full[len(piv)]
    if extra.any():
        assert not linalg.in_row_space(S, R, piv, extra)


def test_entrywise_pow_is_frobenius():
    S = gf(9)
    F = S.master
    A = np.arange(9, dtype=S.add_t.dtype).reshape(3, 3)
    P = linalg.entrywise_pow(S, A, 3)
    for i in range(3):
        for j in range(3):
            assert S.element(int(P[i, j])) == F.pow(S.element(int(A[i, j])), 3)
    # x -> x^3 is additive on GF(9)
    rng = np.random.default_rng(2)
    X = random_idx(rng, S, (4, 4))
    Y = random_idx(rng, S, (4, 4))
    lhs = linalg.entrywise_pow(S, S.add_t[X, Y], 3)
    rhs = S.add_t[linalg.entrywise_pow(S, X, 3), linalg.entrywise_pow(S, Y, 3)]
    assert (lhs == rhs).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_double_nullspace_dimension(seed):
    S = gf(9)
    rng = np.random.default_rng(seed)
    A = random_idx(rng, S, (3, 8))
    N = linalg.nullspace(S, A)
    NN = linalg.nullspace(S, N) if N.shape[0] else np.eye(8, dtype=A.dtype)
    # kernel of the kernel recovers the row-space dimension
    assert NN.shape[0] == linalg.rank(S, A)
    assert linalg.row_space_contains(S, NN.astype(A.dtype), linalg.row_basis(S, A))


# ---------------------------------------------------------------------------
# the table paths against scalar arithmetic in the master field

# (p, m) of the master field each alphabet sits in; GF(4) in GF(16) and
# GF(9) in GF(81) exercise a subfield generator other than xi itself
_MASTERS = {2: (2, 1), 4: (2, 4), 9: (3, 4), 11: (11, 1), 25: (5, 2),
            81: (3, 4)}


def scalar_matmul(S, A, B):
    F = S.master
    out = np.zeros((A.shape[0], B.shape[1]), dtype=A.dtype)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = ZERO
            for t in range(A.shape[1]):
                acc = F.add(acc, F.mul(S.element(int(A[i, t])),
                                       S.element(int(B[t, j]))))
            out[i, j] = S.index(acc)
    return out


def scalar_rref(S, A):
    F = S.master
    M = [[S.element(int(x)) for x in row] for row in A]
    pivots = []
    for c in range(A.shape[1]):
        r = len(pivots)
        hit = [i for i in range(r, len(M)) if M[i][c] != ZERO]
        if not hit:
            continue
        M[r], M[hit[0]] = M[hit[0]], M[r]
        scale = F.inv(M[r][c])
        M[r] = [F.mul(scale, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != ZERO:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
    R = np.array([[S.index(x) for x in row] for row in M], dtype=A.dtype)
    return R.reshape(A.shape), tuple(pivots)


def sparse_idx(rng, S, shape, zeros):
    A = random_idx(rng, S, shape)
    A[rng.random(shape) < zeros] = 0
    return A


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from(sorted(_MASTERS)), rows=st.integers(1, 5),
       inner=st.integers(1, 6), cols=st.integers(1, 7),
       zeros=st.sampled_from([0.0, 0.5, 0.8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_and_rref_match_scalar_arithmetic(q, rows, inner, cols,
                                                 zeros, seed):
    S = build_field(*_MASTERS[q]).subfield(q)
    rng = np.random.default_rng(seed)
    A = sparse_idx(rng, S, (rows, inner), zeros)
    B = sparse_idx(rng, S, (inner, cols), zeros)
    assert (linalg.matmul(S, A, B) == scalar_matmul(S, A, B)).all()
    R, pivots = linalg.rref(S, A)
    R_want, pivots_want = scalar_rref(S, A)
    assert pivots == pivots_want
    assert (R == R_want).all()
