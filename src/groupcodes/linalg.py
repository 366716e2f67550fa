"""Linear algebra over a subfield, on numpy arrays of element indices.

Matrices here are 2-D numpy integer arrays whose entries are *indices* into
a :class:`~groupcodes.fields.Subfield` (0 = zero, i >= 1 = gen^(i-1)), so
row reduction runs through the subfield's dense lookup tables instead of
per-scalar Python arithmetic.

Products use the regular representation of GF(p^e) over GF(p): A @ B
expands A to its (m, n e) coordinates and B to (n e, l e) blocks of
multiplication matrices, takes one float64 product mod p, and gathers the
coordinate vectors back to indices.  The product is exact while
n e (p - 1)^2 < 2^53, which ``matmul`` checks: every alphabet with tables
(q <= MAX_TABLE_ORDER) allows inner dimensions n above 5 * 10^8.  A prime
alphabet is the case e = 1, plain (A @ B) % p.

Membership is one product: a row v lies in the row space of an RREF R with
pivots P exactly when v == v[P] @ R.  ``rref`` hands back a copy of an
input that is already reduced, found by a constant number of whole-matrix
checks, without elimination.
"""

from __future__ import annotations

import numpy as np

from .fields import Subfield


def matmul(sub: Subfield, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    (m, n), l, e, p = A.shape, B.shape[1], sub.degree, sub.p
    if n * e * (p - 1) ** 2 >= 2 ** 53:
        raise AssertionError("the expanded product would not be exact")
    X = sub.coord_t[A].reshape(m, n * e)
    Y = sub.mulmat_t[B].transpose(0, 2, 1, 3).reshape(n * e, l * e)
    C = X @ Y
    C %= p
    codes = C.reshape(m, l, e) @ (float(p) ** np.arange(e))
    return sub.pack_t[codes.astype(np.intp)]


def _reduced_pivots(A: np.ndarray) -> tuple[int, ...] | None:
    """The pivots of A if it is already in RREF, else None.

    With r nonzero rows, A is reduced when the first nonzero entries of its
    first r rows lie in strictly increasing columns, and those columns are
    the first r unit columns (index 1 is the element 1).  A zero row among
    the first r fails the second test: its lead would read as column 0.
    """
    nonzero = A != 0
    r = int(nonzero.any(axis=1).sum())
    if r == 0:
        return ()
    lead = nonzero[:r].argmax(axis=1)
    unit = np.eye(A.shape[0], r, dtype=A.dtype)
    if (lead[1:] <= lead[:-1]).any() or (A[:, lead] != unit).any():
        return None
    return tuple(lead.tolist())


def rref(sub: Subfield, A: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot columns).

    R has the same shape as A (zero rows at the bottom are kept).  A
    matrix already in RREF comes back as a copy, without elimination.
    """
    reduced = _reduced_pivots(A)
    if reduced is not None:
        return A.copy(), reduced
    R = A.copy()
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        hit = np.nonzero(R[r:, c])[0]
        if hit.size == 0:
            continue
        pr = r + int(hit[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = sub.mul_t[R[r], int(sub.inv_t[R[r, c]])]
        fac = R[:, c].copy()
        fac[r] = 0
        R = sub.add_t[R, sub.mul_t[sub.neg_t[fac][:, None], R[r][None, :]]]
        pivots.append(c)
        r += 1
    return R, tuple(pivots)


def row_basis(sub: Subfield, A: np.ndarray) -> np.ndarray:
    """Canonical basis of the row space: RREF with zero rows removed."""
    R, pivots = rref(sub, A)
    return R[: len(pivots)]


def rank(sub: Subfield, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(rref(sub, A)[1])


def nullspace(sub: Subfield, A: np.ndarray) -> np.ndarray:
    """Rows form a basis of {x : A @ x = 0} (the kernel of x -> Ax)."""
    ncols = A.shape[1]
    if A.shape[0] == 0:
        return np.eye(ncols, dtype=sub.add_t.dtype)
    R, pivots = rref(sub, A)
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=A.dtype)
    out[np.arange(len(free)), free] = 1  # index of the element 1
    out[:, list(pivots)] = sub.neg_t[R[:len(pivots), free]].T
    return out


def in_row_space(sub: Subfield, R: np.ndarray, pivots: tuple[int, ...],
                 V: np.ndarray) -> np.ndarray:
    """Which rows of V lie in the row space of the RREF (R, pivots).

    The pivot entries of a row of the row space are its coefficients, so v
    is in it exactly when v == v[pivots] @ R.
    """
    back = matmul(sub, V[:, list(pivots)], R[:len(pivots)])
    return (back == V).all(axis=1)


def row_space_contains(sub: Subfield, A: np.ndarray, B: np.ndarray) -> bool:
    """True iff every row of B lies in the row space of A."""
    R, pivots = rref(sub, A)
    return bool(in_row_space(sub, R, pivots, B).all())


def row_space_equal(sub: Subfield, A: np.ndarray, B: np.ndarray) -> bool:
    Ra = row_basis(sub, A)
    Rb = row_basis(sub, B)
    return Ra.shape == Rb.shape and bool((Ra == Rb).all())


def inverse(sub: Subfield, A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("inverse of non-square matrix")
    aug = np.zeros((n, 2 * n), dtype=A.dtype)
    aug[:, :n] = A
    aug[np.arange(n), n + np.arange(n)] = 1
    R, pivots = rref(sub, aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def entrywise_pow(sub: Subfield, A: np.ndarray, e: int) -> np.ndarray:
    """Apply x -> x^e to every entry (e >= 1): gen^i -> gen^(i e)."""
    m = sub.q - 1
    table = np.zeros(sub.q, dtype=sub.add_t.dtype)
    table[1:] = 1 + np.arange(m) * (e % m) % m
    return table[A]
