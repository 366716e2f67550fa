"""Table-driven linear algebra, cross-checked with integer arithmetic mod p."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes import linalg, oracle
from groupcodes.fields import ZERO, build_field

from helpers import prime_coords, rank, reference_inverse, subfield


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
    assert prime_coords(F, S.element(2))[0] == 3  # gen = root of x+2 = -2 = 3


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
        assert rank(S, A) == r


@pytest.mark.parametrize("q", [4, 5, 9])
def test_nullspace(q):
    S = gf(q)
    rng = np.random.default_rng(10 + q)
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        A = random_idx(rng, S, (n, m))
        N = linalg.nullspace(S, A)
        assert N.shape[0] == m - rank(S, A)
        if N.shape[0]:
            prod = linalg.matmul(S, A, N.T)
            assert not prod.any()
            assert rank(S, N) == N.shape[0]


@pytest.mark.parametrize("q", [5, 9])
def test_inverse(q):
    S = gf(q)
    rng = np.random.default_rng(q * 3)
    found = 0
    while found < 10:
        A = random_idx(rng, S, (4, 4))
        if rank(S, A) < 4:
            continue
        found += 1
        Ainv = reference_inverse(S, A)
        eye = np.zeros((4, 4), dtype=A.dtype)
        eye[np.arange(4), np.arange(4)] = 1
        assert (linalg.matmul(S, A, Ainv) == eye).all()
        assert (linalg.matmul(S, Ainv, A) == eye).all()
    with pytest.raises(ValueError):
        reference_inverse(S, np.zeros((3, 3), dtype=A.dtype))


def test_membership_and_equality():
    S = gf(9)
    rng = np.random.default_rng(1)
    A = random_idx(rng, S, (3, 7))
    R, piv = linalg.rref(S, A)
    # every random combination of rows of A is in the row space
    for _ in range(20):
        coeff = random_idx(rng, S, (1, 3))
        v = linalg.matmul(S, coeff, A)
        assert linalg.in_row_space(S, R, piv, v)[0]
    assert linalg.row_space_contains(S, A, A)
    # a vector outside (extend rank) is rejected
    B = np.vstack([A, random_idx(rng, S, (4, 7))])
    full, fpiv = linalg.rref(S, B)
    extra = full[len(piv)]
    if extra.any():
        assert not linalg.in_row_space(S, R, piv, extra[None])[0]
    # one batch mixing rows inside and outside gets one answer per row;
    # a nonzero word that vanishes on the pivots is outside
    assert piv == (0, 1, 2)
    inside = linalg.matmul(S, random_idx(rng, S, (3, 3)), A)
    units = np.eye(7, dtype=A.dtype)[3:5]    # index 1 is the element 1
    V = np.vstack([inside[:2], units, inside[2:],
                   np.zeros((1, 7), dtype=A.dtype)])
    want = [True, True, False, False, True, True]
    assert linalg.in_row_space(S, R, piv, V).tolist() == want
    assert not linalg.row_space_contains(S, A, V)
    empty = linalg.in_row_space(S, R, piv, np.zeros((0, 7), dtype=A.dtype))
    assert empty.shape == (0,)
    assert linalg.row_space_contains(S, A, np.zeros((0, 7), dtype=A.dtype))


# alphabets in characteristic 2, 3, 5 and 11, some of them proper subfields
POW_FIELDS = [(2, 4, 2), (2, 4, 4), (2, 4, 16), (3, 4, 3), (3, 4, 9),
              (3, 4, 81), (5, 2, 5), (5, 2, 25), (11, 3, 11), (11, 3, 1331)]


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
    # every element, exponents past q - 1, against the scalar power
    for p, m, q in POW_FIELDS:
        S = build_field(p, m).subfield(q)
        x = np.arange(q, dtype=S.add_t.dtype)
        for e in (q - 1, q, 2 * q + 1):
            got = linalg.entrywise_pow(S, x, e)
            assert got.dtype == S.add_t.dtype
            assert [S.element(int(i)) for i in got] == \
                [S.master.pow(a, e) for a in S.elements()], (q, e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_double_nullspace_dimension(seed):
    S = gf(9)
    rng = np.random.default_rng(seed)
    A = random_idx(rng, S, (3, 8))
    N = linalg.nullspace(S, A)
    NN = linalg.nullspace(S, N) if N.shape[0] else np.eye(8, dtype=A.dtype)
    # kernel of the kernel recovers the row-space dimension
    assert NN.shape[0] == rank(S, A)
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


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from(sorted(_MASTERS)), members=st.integers(1, 4),
       rows=st.integers(0, 5), cols=st.integers(0, 7),
       zeros=st.sampled_from([0.0, 0.5, 0.8]), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_rref_matches_scalar_elimination(q, members, rows, cols,
                                                 zeros, seed):
    # members of mixed ranks (a product through r <= rows), zero padding
    # rows at random places, and already reduced members (their own RREF)
    S = build_field(*_MASTERS[q]).subfield(q)
    rng = np.random.default_rng(seed)
    stack = np.zeros((members, rows, cols), dtype=S.add_t.dtype)
    for b in range(members):
        r = int(rng.integers(0, rows + 1))
        A = scalar_matmul(S, sparse_idx(rng, S, (rows, r), zeros),
                          sparse_idx(rng, S, (r, cols), zeros))
        A[rng.random(rows) < 0.3] = 0
        stack[b] = scalar_rref(S, A)[0] if rng.random() < 0.3 else A
    R, pivots = linalg.rref(S, stack)
    assert R.shape == stack.shape and len(pivots) == members
    for b in range(members):
        R_want, pivots_want = scalar_rref(S, stack[b])
        assert pivots[b] == pivots_want
        assert (R[b] == R_want).all()
        R_one, pivots_one = linalg.rref(S, stack[b])   # a batch of one
        assert pivots_one == pivots_want and (R_one == R_want).all()
    # a batch of one, and two leading dimensions (pivots in flat order)
    R1, pivots1 = linalg.rref(S, stack[:1])
    assert pivots1 == pivots[:1] and (R1 == R[:1]).all()
    R2, pivots2 = linalg.rref(S, np.stack([stack, stack]))
    assert pivots2 == pivots + pivots and (R2 == R[None]).all()


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([4, 9, 25]), members=st.integers(1, 4),
       rows=st.integers(0, 6), cols=st.integers(1, 6),
       zeros=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_nullspace_and_oracle_duals_match_per_matrix(
        q, members, rows, cols, zeros, seed):
    # members of every rank 0..min(rows, cols), zero rows at random places
    # and whole zero members; q is a square, so both pairings exist
    S = build_field(*_MASTERS[q]).subfield(q)
    root = math.isqrt(q)
    rng = np.random.default_rng(seed)
    stack = np.zeros((members, rows, cols), dtype=S.add_t.dtype)
    for b in range(members):
        r = int(rng.integers(0, min(rows, cols) + 1))
        A = scalar_matmul(S, sparse_idx(rng, S, (rows, r), zeros),
                          sparse_idx(rng, S, (r, cols), zeros))
        A[rng.random(rows) < 0.2] = 0
        stack[b] = A
    N = linalg.nullspace(S, stack)
    assert N.shape == (members, cols, cols)
    duals = (oracle.euclid_dual_basis(S, stack),
             oracle.hermitian_dual_basis(S, stack, root))
    for b, A in enumerate(stack):
        pivots = linalg.rref(S, A)[1]
        free = [c for c in range(cols) if c not in pivots]
        assert (N[b, free] == linalg.nullspace(S, A)).all()
        assert not N[b, list(pivots)].any()
        for (R, piv), (R_one, piv_one) in zip(
                duals, (oracle.euclid_dual_basis(S, A),
                        oracle.hermitian_dual_basis(S, A, root))):
            assert piv[b] == piv_one
            assert (R[b, :len(piv_one)] == R_one[:len(piv_one)]).all()
            assert not R[b, len(piv_one):].any()


def scalar_in_row_space(S, R, v):
    """v is in the row space of R iff appending it keeps the rank."""
    rank = len(scalar_rref(S, R)[1])
    return len(scalar_rref(S, np.vstack([R, v[None]]))[1]) == rank


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from(sorted(_MASTERS)), rows=st.integers(1, 5),
       cols=st.integers(1, 7), zeros=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       inside=st.integers(0, 3), outside=st.integers(0, 3),
       blank=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_in_row_space_matches_scalar_elimination(q, rows, cols, zeros, inside,
                                                 outside, blank, seed):
    # R keeps its zero rows at the bottom, and an all-zero A has no pivots
    S = build_field(*_MASTERS[q]).subfield(q)
    rng = np.random.default_rng(seed)
    A = sparse_idx(rng, S, (rows, cols), zeros)
    R, pivots = scalar_rref(S, A)
    V = np.vstack([scalar_matmul(S, random_idx(rng, S, (inside, rows)), A),
                   random_idx(rng, S, (outside, cols)),
                   np.zeros((blank, cols), dtype=A.dtype)])
    V = V[rng.permutation(len(V))]
    got = linalg.in_row_space(S, R, pivots, V)
    assert got.tolist() == [scalar_in_row_space(S, R, v) for v in V]


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from(sorted(_MASTERS)), rows=st.integers(0, 5),
       cols=st.integers(0, 7), zeros=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rref_returns_a_reduced_input_unchanged(q, rows, cols, zeros, seed):
    S = build_field(*_MASTERS[q]).subfield(q)
    A = sparse_idx(np.random.default_rng(seed), S, (rows, cols), zeros)
    R_in, pivots_in = scalar_rref(S, A)
    assert linalg._reduced_pivots(R_in[None]) == [pivots_in]
    R, pivots = linalg.rref(S, R_in)
    assert pivots == pivots_in
    assert R is not R_in and R.shape == R_in.shape and (R == R_in).all()


# almost reduced: each breaks one condition of RREF (index 2 is not 1)
NEAR_REDUCED = {
    "non-unit pivot": [[2, 0, 3], [0, 1, 1]],
    "nonzero above a pivot": [[1, 3, 0], [0, 1, 2]],
    "zero row above a nonzero row": [[0, 0, 0], [1, 0, 2]],
    "pivots not increasing": [[0, 1, 2], [1, 0, 3]],
    "repeated pivot": [[1, 0, 2], [1, 0, 0]],
}


@pytest.mark.parametrize("q", sorted(q for q in _MASTERS if q > 3))
@pytest.mark.parametrize("case", sorted(NEAR_REDUCED))
def test_rref_of_near_reduced_input_matches_scalar(q, case):
    S = build_field(*_MASTERS[q]).subfield(q)
    A = np.array(NEAR_REDUCED[case], dtype=S.add_t.dtype)
    assert linalg._reduced_pivots(A[None]) == [None]
    R, pivots = linalg.rref(S, A)
    R_want, pivots_want = scalar_rref(S, A)
    assert pivots == pivots_want
    assert (R == R_want).all()
    assert linalg.rref(S, R_want)[1] == pivots_want


@pytest.mark.parametrize("p,m", [(2, 12), (4093, 1)])
def test_matmul_exact_at_the_extremes(p, m):
    # GF(4096) expands each entry to e = 12 coordinates; GF(4093) is the
    # largest prime below MAX_TABLE_ORDER, whose products of -1 by -1 make
    # the largest coordinate sums the expanded product meets
    S = build_field(p, m).subfield(p ** m)
    rng = np.random.default_rng(p)
    inner = 300
    A = random_idx(rng, S, (3, inner))
    B = random_idx(rng, S, (inner, 4))
    minus_one = S.index(S.master.minus_one)
    A[0], B[:, 0] = minus_one, minus_one
    assert (linalg.matmul(S, A, B) == scalar_matmul(S, A, B)).all()


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 4, 9, 25]), members=st.integers(1, 4),
       rows=st.integers(0, 5), cols=st.integers(1, 7),
       vrows=st.sampled_from([1, 2, 7]), zeros=st.sampled_from([0.0, 0.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_products_match_per_member(q, members, rows, cols, vrows,
                                           zeros, seed):
    # members of every rank 0..min(rows, cols), zero rows at random places
    # (so zero padding rows below each RREF), and rows of V inside the row
    # space, outside it (mostly) and zero
    S = build_field(*_MASTERS[q]).subfield(q)
    rng = np.random.default_rng(seed)
    A = sparse_idx(rng, S, (members, vrows, rows), zeros)
    B = sparse_idx(rng, S, (members, rows, cols), zeros)
    C = linalg.matmul(S, A, B)
    assert C.shape == (members, vrows, cols)
    for b in range(members):
        assert (C[b] == linalg.matmul(S, A[b], B[b])).all()
    # the leading axes broadcast: one right operand for the whole stack
    assert (linalg.matmul(S, A, B[0]) == linalg.matmul(
        S, A, np.broadcast_to(B[0], B.shape))).all()

    stack = np.zeros((members, rows, cols), dtype=S.add_t.dtype)
    for b in range(members):
        r = int(rng.integers(0, min(rows, cols) + 1))
        M = scalar_matmul(S, sparse_idx(rng, S, (rows, r), zeros),
                          sparse_idx(rng, S, (r, cols), zeros))
        M[rng.random(rows) < 0.2] = 0
        stack[b] = M
    R, pivots = linalg.rref(S, stack)
    V = random_idx(rng, S, (members, vrows, cols))
    kind = rng.integers(0, 3, size=(members, vrows))
    for b in range(members):
        inside = scalar_matmul(S, random_idx(rng, S, (vrows, rows)), stack[b])
        V[b][kind[b] == 1] = inside[kind[b] == 1]
        V[b][kind[b] == 2] = 0
    got = linalg.in_row_space(S, R, pivots, V)
    assert got.shape == (members, vrows)
    for b in range(members):
        assert (got[b] == linalg.in_row_space(S, R[b], pivots[b], V[b])).all()
        assert got[b][kind[b] > 0].all()


def scalar_nullspace(S, A):
    """The kernel basis read off the scalar RREF: for each free column f in
    turn, 1 at f and minus the RREF's column f at the pivots."""
    R, pivots = scalar_rref(S, A)
    F, n = S.master, A.shape[1]
    rows = []
    for f in (c for c in range(n) if c not in pivots):
        v = np.zeros(n, dtype=A.dtype)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = S.index(F.neg(S.element(int(R[i, f]))))
        rows.append(v)
    return np.array(rows, dtype=A.dtype).reshape(len(rows), n)


# the largest alphabets with tables, GF(2^12) and the prime GF(4093): q^2
# passes 2^15 there, so a flat table index a q + b held in int16 would wrap
_BIG = {4096: (2, 12), 4093: (4093, 1)}


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(sorted(_BIG)), rows=st.integers(1, 5),
       cols=st.integers(1, 7), zeros=st.sampled_from([0.0, 0.5, 0.8]),
       extra=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_big_alphabets_match_scalar_arithmetic(q, rows, cols, zeros, extra,
                                               seed):
    S = subfield(*_BIG[q], q)
    rng = np.random.default_rng(seed)
    A = sparse_idx(rng, S, (rows, cols), zeros)
    # the top indices, whose flat indices are the largest
    A[rng.random((rows, cols)) < 0.2] = q - 1
    R, pivots = linalg.rref(S, A)
    R_want, pivots_want = scalar_rref(S, A)
    assert pivots == pivots_want
    assert (R == R_want).all()
    assert (linalg.nullspace(S, A) == scalar_nullspace(S, A)).all()
    V = np.vstack([scalar_matmul(S, random_idx(rng, S, (extra, rows)), A),
                   random_idx(rng, S, (extra, cols))])
    got = linalg.in_row_space(S, R, pivots, V)
    assert got.tolist() == [scalar_in_row_space(S, R_want, v) for v in V]
