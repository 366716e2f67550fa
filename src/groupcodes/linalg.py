"""Linear algebra over a subfield, on numpy arrays of element indices.

Matrices here are 2-D numpy integer arrays whose entries are *indices* into
a :class:`~groupcodes.fields.Subfield` (0 = zero, i >= 1 = gen^(i-1)), so
row reduction and products run through the subfield's dense lookup tables
instead of per-scalar Python arithmetic.
"""

from __future__ import annotations

import numpy as np

from .fields import Subfield


def matmul(sub: Subfield, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    C = np.zeros((A.shape[0], B.shape[1]), dtype=A.dtype)
    for j in range(A.shape[1]):
        C = sub.add_t[C, sub.mul_t[A[:, j][:, None], B[j][None, :]]]
    return C


def rref(sub: Subfield, A: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot columns).

    R has the same shape as A (zero rows at the bottom are kept).
    """
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
    """Which rows of V lie in the row space of the RREF (R, pivots)."""
    W = V
    for i, c in enumerate(pivots):
        W = sub.add_t[W, sub.mul_t[sub.neg_t[W[:, c]][:, None], R[i][None, :]]]
    return ~W.any(axis=1)


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
