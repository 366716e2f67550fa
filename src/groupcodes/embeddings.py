"""Power-basis coordinates of a block field over the code alphabet.

Block entries in an extension K = GF(Q^d) of the alphabet GF(Q) are
flattened to their coordinates over the power basis 1, tau, ..., tau^(d-1)
of K's generator tau by one GF(p)-linear change of basis, with no table
over K: the packed coefficient vectors of beta_k tau^j (beta_k the
alphabet's basis over GF(p), ``Subfield.coord_t``) are the rows of
``to_digits``, and one elimination inverts them on their pivot columns
(``from_digits``), proving that the basis spans K.  ``trace_form`` is the
Gram matrix of the trace from K to the alphabet on that basis, which
inverts a group algebra's block map in closed form.  ``block_maps`` joins
the maps of many entries into one; ``to_elements`` and ``to_coords``
apply it to many rows at once.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .fields import ZERO, Subfield


class PowerBasis:
    """Coordinate maps between GF(Q^d) and GF(Q)^d inside one master field."""

    def __init__(self, block: Subfield, alphabet: Subfield):
        if block.master is not alphabet.master:
            raise ValueError("block field and alphabet use different master tables")
        if block.degree % alphabet.degree:
            raise ValueError(f"GF({block.q}) is not an extension of GF({alphabet.q})")
        self.block = block
        self.alphabet = alphabet
        self.d = block.degree // alphabet.degree
        if alphabet.q**self.d != block.q:
            raise ValueError("inconsistent subfield pair")

    @cached_property
    def to_digits(self) -> np.ndarray:
        """(d e, m) float64: row j e + k holds the digits of beta_k tau^j."""
        F, A = self.block.master, self.alphabet
        beta = A.pack_t.take(_powers(A.p, A.degree).astype(np.intp))
        beta = beta.astype(np.int64)
        logs = (beta - 1) * A.step + np.arange(self.d)[:, None] * self.block.gen
        return _quotients(F, logs.reshape(-1, 1) % F.mult_order)[..., 0] % F.p

    @cached_property
    def from_digits(self) -> np.ndarray:
        """(m, d e) float64: x has coordinates digits(x) @ from_digits.  The
        elimination runs in the alphabet, where c in GF(p) is ``pack_t[c]``."""
        A, m, n = self.alphabet, self.block.master.m, len(self.to_digits)
        aug = np.hstack([self.to_digits, np.eye(n)]).astype(np.intp)
        R, pivots = linalg.rref(A, A.pack_t.take(aug))
        if pivots[-1] >= m:
            raise AssertionError("power basis does not span the block field")
        out = np.zeros((m, n))
        out[list(pivots)] = A.coord_t.take(R[:, m:], axis=0)[..., 0]
        return out

    @cached_property
    def trace_form(self) -> np.ndarray:
        """(d, d) alphabet indices: entry [i, j] is Tr(tau^(i + j)), the
        trace from the block field to the alphabet.  A Hankel matrix, so
        2d - 1 traces fill it, each a sum of d Frobenius images."""
        F, Q, d = self.block.master, self.alphabet.q, self.d
        traces = []
        for k in range(2 * d - 1):
            y, t = k * self.block.gen % F.mult_order, ZERO
            for _ in range(d):
                t = F.add(t, y)
                y = y * Q % F.mult_order
            traces.append(self.alphabet.index(t))
        i = np.arange(d)
        return np.array(traces, dtype=np.int16)[i[:, None] + i]

    def flatten(self, x) -> np.ndarray:
        """Alphabet indices, shape (..., d), of block-field elements x."""
        x = np.asarray(x)
        flat = to_coords(self.alphabet, x.reshape(-1, 1), self.from_digits)
        return flat.reshape(*x.shape, self.d)


def block_maps(bases: list[PowerBasis]) -> tuple[np.ndarray, np.ndarray]:
    """``to_digits`` and ``from_digits`` of k entries side by side: entry j
    takes the next d_j coordinates, in ``bases[j]``, and the digit columns
    j, j + k, ..., j + (m - 1) k."""
    k, m = len(bases), bases[0].block.master.m
    widths = [len(b.to_digits) for b in bases]
    to_digits = np.zeros((sum(widths), m * k))
    from_digits = to_digits.T.copy()
    for j, (b, end) in enumerate(zip(bases, itertools.accumulate(widths))):
        rows = slice(end - widths[j], end)
        to_digits[rows, j::k] = b.to_digits
        from_digits[j::k, rows] = b.from_digits
    return to_digits, from_digits


@lru_cache(maxsize=None)
def _powers(p: int, k: int) -> np.ndarray:
    w = float(p) ** np.arange(k)
    w.flags.writeable = False  # shared by every caller
    return w


def _quotients(F, x: np.ndarray) -> np.ndarray:
    """floor(v / p^i) for the packed vectors v of master elements x (r, k),
    as float64 (r, m, k): digit i of v modulo p, so a linear map of the
    digits mod p may take the quotients instead.

    The floor is exact: for v < 2^24 the correctly rounded quotient misses
    a fraction of at least 1 / p^i by far less than that.  Reducing
    integer-valued floats below 2^50 mod p rests on the same argument.
    """
    packed = np.where(x == ZERO, 0.0, F.exp[x])
    return np.floor(packed[:, None, :] / _powers(F.p, F.m)[:, None])


def to_elements(alphabet: Subfield, C: np.ndarray, to_digits: np.ndarray) -> np.ndarray:
    """Master elements (r, k), int64, with digits coords(C) @ to_digits
    mod p, for alphabet indices C (r, n)."""
    F, p, (n, mk) = alphabet.master, alphabet.p, to_digits.shape
    digits = alphabet.coord_t.take(C, axis=0).reshape(len(C), n) @ to_digits
    digits -= p * np.floor(digits / p)
    packed = _powers(p, F.m) @ digits.reshape(len(C), F.m, mk // F.m)
    return F.log[packed.astype(np.intp)].astype(np.int64)


def to_coords(alphabet: Subfield, x, from_digits: np.ndarray) -> np.ndarray:
    """Alphabet indices (r, n) with coordinates digits(x) @ from_digits mod
    p, for master elements x (r, k)."""
    F, p, e, (mk, n) = alphabet.master, alphabet.p, alphabet.degree, from_digits.shape
    x = np.reshape(np.asarray(x, dtype=np.int64), (len(x), mk // F.m))
    coords = _quotients(F, x).reshape(len(x), mk) @ from_digits
    coords -= p * np.floor(coords / p)
    codes = coords.reshape(len(x), n // e, e) @ _powers(p, e)
    return alphabet.pack_t.take(codes.astype(np.intp))
