"""Linear algebra over a subfield, on numpy arrays of element indices.

Matrices here are numpy integer arrays whose entries are *indices* into
a :class:`~groupcodes.fields.Subfield` (0 = zero, i >= 1 = gen^(i-1)), so
row reduction runs through the subfield's entrywise arithmetic
(``Subfield.add`` / ``mul`` / ``neg`` / ``inv``, one gather from a dense
table each) instead of per-scalar Python arithmetic.

Products use the regular representation of GF(p^e) over GF(p): A @ B
expands A to its (m, n e) coordinates and B to (n e, l e) blocks of
multiplication matrices, takes one float64 product mod p, and gathers the
coordinate vectors back to indices.  The product is exact while
n e (p - 1)^2 < 2^53, which ``matmul`` checks: every alphabet with tables
(q <= MAX_TABLE_ORDER) allows inner dimensions n above 5 * 10^8.  A prime
alphabet is the case e = 1, plain (A @ B) % p.

Products broadcast over leading stack axes.  Membership is one product: a
row v lies in the row space of an RREF R with pivots P exactly when
v == v[P] @ R, and a stack of RREFs tests a stack of row blocks with one
stacked product.  ``rref`` reduces a matrix or a whole stack (..., m, n)
of them with one Gauss-Jordan loop over the columns, a matrix being a
stack of one: at each column every member picks its pivot row, and the
rows of the whole stack that hold a nonzero entry there are updated at
once, by one product and one sum of arrays.  A member that is already
reduced, found by a constant number of whole-stack checks, comes back as
a copy without elimination.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Subfield


def matmul(sub: Subfield, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over the subfield, by one float64 product of coordinates.

    A (..., m, n) and B (..., n, l) may be stacks, whose leading axes
    broadcast as in numpy's matmul.

    Every entry x of the product is an integer below n e (p - 1)^2, and
    while that is below 2^53 both x and floor(x / p) are exact: the
    correctly rounded x / p misses the next integer by at least 1 / p,
    more than half its spacing.  So x - p floor(x / p) is x mod p, which
    numpy computes faster than float %.
    """
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    (m, n), l, e, p = A.shape[-2:], B.shape[-1], sub.degree, sub.p
    if n * e * (p - 1) ** 2 >= 2 ** 53:
        raise AssertionError("the expanded product would not be exact")
    X = sub.coord_t.take(A, axis=0).reshape(*A.shape[:-2], m, n * e)
    Y = (sub.mulmat_t.take(B, axis=0).swapaxes(-3, -2)
         .reshape(*B.shape[:-2], n * e, l * e))
    C = X @ Y
    C -= p * np.floor(C / p)
    codes = C.reshape(*C.shape[:-1], l, e) @ (float(p) ** np.arange(e))
    return sub.pack_t.take(codes.astype(np.intp))


def _reduced_pivots(S: np.ndarray) -> list[tuple[int, ...] | None]:
    """The pivots of each matrix of the stack S (B, m, n) that is already
    in RREF, None for the others.

    Give a zero row the leading column n.  A matrix is reduced when its
    rows' leading columns increase strictly up to its zero rows, and each
    nonzero row i leads in a unit column (index 1 is the element 1) whose
    1 is in row i.
    """
    B, m, n = S.shape
    if S.size == 0:
        return [()] * B
    nonzero = S != 0
    live = nonzero.any(axis=2)
    lead = np.where(live, nonzero.argmax(axis=2), n)
    ok = ((lead[:, 1:] > lead[:, :-1]) | (lead[:, 1:] == n)).all(axis=1)
    if ok.any():
        # cols[b, i, j] = S[b, i, lead[b, j]], the identity on live pivots
        cols = S[np.arange(B)[:, None, None], np.arange(m)[:, None],
                 np.minimum(lead, n - 1)[:, None, :]]
        unit = (cols == np.eye(m, dtype=S.dtype)) | ~live[:, None, :]
        ok &= unit.all(axis=(1, 2))
    return [tuple(p[:r].tolist()) if good else None
            for p, r, good in zip(lead, live.sum(axis=1), ok)]


# below this many entries (rows times remaining columns), updating every
# row beats gathering the rows that change
_SPARSE_UPDATE = 2 ** 12


def _eliminate(sub: Subfield, R: np.ndarray) -> tuple[np.ndarray, list]:
    """The RREF of every matrix of the stack R (B, m, n) and its pivots,
    by one column loop for the whole stack.

    Rows are not swapped.  At column c, each matrix with a nonzero entry
    there in a row that holds no pivot yet takes the first such row as its
    pivot row, and the rows with a nonzero entry at c in those matrices
    are updated: only they, gathered, when they are under half the rows
    of a stack whose remaining columns hold _SPARSE_UPDATE entries or
    more, else every row.  At the end the pivot rows are sorted by their
    leading columns, and the other rows, all zero by then, follow.

    The stack is held as intp through the loop, so each row update is two
    gathers whose flat indices need no conversion; the result has R's
    dtype.
    """
    B, m, n = R.shape
    dtype = R.dtype
    R = R.reshape(B * m, n).astype(np.intp)
    first = np.arange(B) * m                 # row 0 of each matrix
    owner = np.repeat(np.arange(B), m)       # the matrix of each row
    free = np.ones(B * m, dtype=bool)        # rows holding no pivot yet
    for c in range(n):
        col = R[:, c]
        hit = np.logical_and(col, free)
        at = first + hit.reshape(B, m).argmax(axis=1)
        found = hit[at]
        k = np.count_nonzero(found)
        if not k:
            continue
        # the pivot row is zero left of c, so columns left of c stay
        lead = R[at, c:]
        lead = sub.mul(lead, sub.inv(lead[:, 0])[:, None])
        # the pivot row cancels itself here, and takes the lead row below
        fac = sub.neg(col)
        if k < B:
            fac.reshape(B, m)[~found] = 0
        if (B * m * (n - c) >= _SPARSE_UPDATE
                and 2 * np.count_nonzero(fac) < B * m):
            # most rows of a large stack stay: gather the others
            live = np.flatnonzero(fac)
            R[live, c:] = sub.add(R[live, c:], sub.mul(fac[live, None],
                                                       lead[owner[live]]))
        else:
            # update every row, each matrix's lead row broadcast over its
            # rows
            R[:, c:] = sub.add(R[:, c:], sub.mul(fac.reshape(B, m, 1),
                                                 lead[:, None])
                               .reshape(B * m, n - c))
        if k < B:
            at, lead = at[found], lead[found]
        R[at, c:] = lead
        free[at] = False
        if c >= m - 1 and not free.any():
            break
    R = R.reshape(B, m, n).astype(dtype)
    free = free.reshape(B, m)
    key = np.where(free, n, (R != 0).argmax(axis=2))
    order = np.arange(B)[:, None], key.argsort(axis=1, kind="stable")
    return R[order], [tuple(p[:m - f].tolist())
                      for p, f in zip(key[order], free.sum(axis=1))]


def rref(sub: Subfield, A: np.ndarray):
    """Reduced row echelon form; returns (R, pivot columns).

    R has the same shape as A (zero rows at the bottom are kept).  A may be
    a stack (..., m, n) of matrices, all reduced by one column loop; then
    the pivots are a list with one tuple per matrix, in the order of
    ``A.reshape(-1, m, n)``.  A matrix already in RREF comes back as a
    copy, without elimination.
    """
    *stack, m, n = A.shape
    R = A.reshape(math.prod(stack), m, n).copy()
    pivots = _reduced_pivots(R)
    todo = [b for b, p in enumerate(pivots) if p is None]
    if todo and len(todo) == len(R):
        R, pivots = _eliminate(sub, R)
    elif todo:
        R[todo], found = _eliminate(sub, R[todo])
        for b, p in zip(todo, found):
            pivots[b] = p
    R = R.reshape(A.shape)
    return (R, pivots) if stack else (R, pivots[0])


def row_basis(sub: Subfield, A: np.ndarray) -> np.ndarray:
    """Canonical basis of the row space: RREF with zero rows removed."""
    R, pivots = rref(sub, A)
    return R[: len(pivots)]


def nullspace(sub: Subfield, A: np.ndarray) -> np.ndarray:
    """Rows form a basis of {x : A @ x = 0} (the kernel of x -> Ax).

    A may be a stack (..., m, n), reduced by one stacked ``rref``; then
    each member's kernel is the (n, n) matrix (I - P)^T, where P holds the
    member's RREF rows at their pivot indices.  Its rows at pivot columns
    are zero and the others are the basis, which for a single matrix is
    returned alone, in column order.
    """
    *stack, m, n = A.shape
    R, pivots = rref(sub, A.reshape(math.prod(stack), m, n))
    P = np.zeros((len(R), n, n), dtype=A.dtype)
    for Pb, Rb, piv in zip(P, R, pivots):
        Pb[list(piv)] = Rb[:len(piv)]
    # I - P has 1 - P[c, c] on its diagonal: 0 at a pivot, 1 (the index
    # of the element 1) elsewhere
    out = sub.neg(P.transpose(0, 2, 1)).astype(A.dtype, copy=False)
    diag = np.arange(n)
    out[:, diag, diag] = P[:, diag, diag] == 0
    if stack:
        return out.reshape(*stack, n, n)
    return out[0, [c for c in range(n) if c not in pivots[0]]]


def in_row_space(sub: Subfield, R: np.ndarray, pivots, V: np.ndarray
                 ) -> np.ndarray:
    """Which rows of V lie in the row space of the RREF (R, pivots).

    The pivot entries of a row of the row space are its coefficients, so v
    is in it exactly when v == v[pivots] @ R.

    R (B, m, n) may be a stack of RREFs with a list of pivots, as ``rref``
    returns it, and V (B, r, n) a stack of as many blocks of rows; then
    the answer is (B, r), from one stacked product.  Each member's columns
    are put in the order pivots first, so the coefficients are the first
    columns of every row, up to the largest rank; a member of lower rank
    takes some of its other entries as coefficients, which meet only its
    zero rows.  The columns before the smallest rank are pivots of every
    member, where a row always equals its coefficients, so only the
    columns from there on are multiplied out and compared.
    """
    if R.ndim == 2:
        back = matmul(sub, V[:, list(pivots)], R[:len(pivots)])
        return (back == V).all(axis=1)
    ranks = [len(p) for p in pivots]
    lo, hi = min(ranks, default=0), max(ranks, default=0)
    pivot = np.zeros((len(R), R.shape[2]), dtype=bool)
    for row, p in zip(pivot, pivots):
        row[list(p)] = True
    order = np.argsort(~pivot, axis=1, kind="stable")[:, None, :]
    V = np.take_along_axis(V, order, axis=2)
    back = matmul(sub, V[:, :, :hi],
                  np.take_along_axis(R[:, :hi], order, axis=2)[:, :, lo:])
    return (back == V[:, :, lo:]).all(axis=2)


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
    return table.take(A)
