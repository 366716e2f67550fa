"""Power-basis coordinates of a block field over the code alphabet.

Block entries in an extension K = GF(Q^d) of the alphabet GF(Q) are
flattened to their coordinates over the power basis 1, tau, ..., tau^(d-1)
of K's generator tau by one GF(p)-linear change of basis, with no table
over K: the packed coefficient vectors of beta_k tau^j (beta_k the
alphabet's basis over GF(p), ``Subfield.coord_t``) are the rows of
``to_digits``, and one elimination inverts them on their pivot columns
(``from_digits``), proving that the basis spans K.  ``trace_form`` is the
Gram matrix of the trace from K to the alphabet on that basis, which
inverts a group algebra's block map in closed form.  ``flatten`` and
``unflatten`` apply the two maps to any number of entries at once, through
``to_coords`` and ``to_elements``.
"""

from __future__ import annotations

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
        return _quotients(F, logs.ravel() % F.mult_order) % F.p

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
        x = np.asarray(x, dtype=np.int64)
        flat = to_coords(self.alphabet, x.ravel(), self.from_digits)
        return flat.reshape(*x.shape, self.d)

    def unflatten(self, coords) -> np.ndarray:
        """Block-field elements, int64, with alphabet-index coordinates
        coords (..., d): the inverse of ``flatten``."""
        C = np.asarray(coords)
        x = to_elements(self.alphabet, C.reshape(-1, self.d), self.to_digits)
        return x.reshape(C.shape[:-1])


@lru_cache(maxsize=None)
def _powers(p: int, k: int) -> np.ndarray:
    w = float(p) ** np.arange(k)
    w.flags.writeable = False  # shared by every caller
    return w


def _quotients(F, x: np.ndarray) -> np.ndarray:
    """floor(v / p^i) for the packed vectors v of master elements x (r,),
    as float64 (r, m): digit i of v modulo p, so a linear map of the
    digits mod p may take the quotients instead.

    The floor is exact: for v < 2^24 the correctly rounded quotient misses
    a fraction of at least 1 / p^i by far less than that.  Reducing
    integer-valued floats below 2^50 mod p rests on the same argument.
    """
    packed = np.where(x == ZERO, 0.0, F.exp[x])
    return np.floor(packed[:, None] / _powers(F.p, F.m))


def to_elements(alphabet: Subfield, C: np.ndarray, to_digits: np.ndarray) -> np.ndarray:
    """Master elements (r,), int64, with digits coords(C) @ to_digits
    mod p, for alphabet indices C (r, d)."""
    F, p, n = alphabet.master, alphabet.p, len(to_digits)
    digits = alphabet.coord_t.take(C, axis=0).reshape(len(C), n) @ to_digits
    digits -= p * np.floor(digits / p)
    return F.log[(digits @ _powers(p, F.m)).astype(np.intp)].astype(np.int64)


def to_coords(alphabet: Subfield, x: np.ndarray, from_digits: np.ndarray) -> np.ndarray:
    """Alphabet indices (r, d) with coordinates digits(x) @ from_digits mod
    p, for master elements x (r,), int64."""
    p, e, n = alphabet.p, alphabet.degree, from_digits.shape[1]
    coords = _quotients(alphabet.master, x) @ from_digits
    coords -= p * np.floor(coords / p)
    codes = coords.reshape(len(coords), n // e, e) @ _powers(p, e)
    return alphabet.pack_t.take(codes.astype(np.intp))
