"""Slow reference implementations used to cross-check the structured routes.

Everything here works straight from the group presentation and brute-force
linear algebra: multiplication is coefficient convolution against a group
multiplication table, duals come from nullspaces of inner-product matrices,
and ideal membership is checked by closing a row space under left
translation.  None of it knows about block decompositions, which is the
point — agreement with the closed-form modules is evidence, not tautology.
The one piece a decomposition reuses is the multiplication table:
``Decomposition.mul_table`` builds it here on first use, and spec -> code
and the distance search's automorphism read it from there.

Coordinate convention (shared contract with the structured modules): the
element a^i b^j of a dihedral group of rotation order n sits at index
j*n + i, i.e. columns run 1, a, ..., a^(n-1), b, ab, ..., a^(n-1) b.  For the
generalised quaternion group of order 4n the rotation has order 2n and the
same rule gives index j*2n + i.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .fields import Subfield


# ---------------------------------------------------------------------------
# group multiplication tables


def dihedral_mul_table(n: int) -> np.ndarray:
    """table[g, h] = index of the product gh in the dihedral group D_n."""
    return _mul_table(n, 0)


def quaternion_mul_table(n: int) -> np.ndarray:
    """table[g, h] = index of gh in the generalised quaternion group of order 4n.

    Presentation: rotation a of order 2n, b^2 = a^n, b a b^(-1) = a^(-1).
    """
    return _mul_table(2 * n, n)


def _mul_table(m: int, twist: int) -> np.ndarray:
    """a^i1 b^j1 a^i2 b^j2 = a^(i1 -+ i2 + twist j1 j2) b^(j1 + j2), with
    rotation order m and b^2 = a^twist."""
    g = np.arange(2 * m)
    i1, j1, i2, j2 = (g % m)[:, None], (g // m)[:, None], g % m, g // m
    i = np.where(j1 == 1, i1 - i2, i1 + i2) + twist * j1 * j2
    return (j1 + j2) % 2 * m + i % m


# ---------------------------------------------------------------------------
# algebra operations by convolution


def group_mul(sub: Subfield, table: np.ndarray, U: np.ndarray,
              V: np.ndarray) -> np.ndarray:
    """Products of algebra elements given as alphabet-index vectors: the
    rows of the stacks U, V (..., |G|), taken pairwise.

    (u v)_k is the sum of u_g v_h over gh = k, so u_g times v moved by
    h -> gh is added once for each group element g: one gather per g.
    """
    U, V = np.asarray(U), np.asarray(V)
    W = np.zeros(np.broadcast_shapes(U.shape, V.shape), dtype=sub.add_t.dtype)
    # V[..., moved[g]][k] = v_h with gh = k
    moved = np.argsort(table, axis=1)
    for g in range(table.shape[0]):
        W = sub.add(W, sub.mul(U[..., g, None], V[..., moved[g]]))
    return W


def translate_vector(table: np.ndarray, g: int, u: np.ndarray) -> np.ndarray:
    """Coefficient vector of g*u for a basis group element g (each row of a
    matrix u)."""
    out = np.empty_like(u)
    out[..., table[g]] = u
    return out


def is_left_ideal(sub: Subfield, table: np.ndarray, basis: np.ndarray) -> bool:
    """Whether the row space is closed under left multiplication by the group.

    Closure under the two generators (a at index 1, b at index n) suffices.
    """
    if basis.shape[0] == 0:
        return True
    size = table.shape[0]
    gens = (1, size // 2)
    R, piv = linalg.rref(sub, basis)
    return all(linalg.in_row_space(sub, R, piv,
                                   translate_vector(table, g, basis)).all()
               for g in gens)


# ---------------------------------------------------------------------------
# duals as nullspaces


def euclid_dual_basis(sub: Subfield, basis: np.ndarray):
    """The RREF (R, pivots) of {v : sum_g u_g v_g = 0 for all u in the row
    space}, as ``linalg.rref`` returns it: ``basis`` may be a stack of
    codes, each dualised on its own by one stacked nullspace and RREF."""
    return linalg.rref(sub, linalg.nullspace(sub, basis))


def hermitian_dual_basis(sub: Subfield, basis: np.ndarray, q: int):
    """The RREF (R, pivots) of {v : sum_g u_g v_g^q = 0}, of a code or of
    each member of a stack; q is the conjugation root.

    v is hermitian-orthogonal to everything iff its entrywise q-th power is
    euclidean-orthogonal, so conjugate the euclidean nullspace back.
    """
    null = linalg.nullspace(sub, basis)
    return linalg.rref(sub, linalg.entrywise_pow(sub, null, q))
