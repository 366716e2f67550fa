"""Criterion 6's two length-32 reference codes over GF(9), rebuilt here.

The data mirror the acceptance gate's pinned realisation: xi is the least
root of x^4 + 2x^3 + 2 in GF(81), omega = xi^10, and the FREE / CROSS_FIXED
blocks of GF(9)[D_16] (hermitian) use fixed powers of xi as roots, so the
ideal labels below and the generator elements denote the same codes.  The
two routes are cross-checked every time the codes are built.
"""

from __future__ import annotations

import numpy as np

from groupcodes import dihedral_algebra as da
from groupcodes import ideals_codes as ic
from groupcodes import linalg, oracle
from groupcodes.fields import ZERO

# Terms are (rotation exponent, omega exponent); "m" stands for -1.  The
# first table of each pair lists coefficients of a^i, the second of b*a^i.
CODE_A_ROT = ((1, 3), (2, 7), (3, 1), (5, 0), (6, 5), (7, 0), (8, 0), (9, 3),
              (10, 2), (11, 1), (13, 0), (14, 6), (15, 0))
CODE_A_REF = ((0, 1), (1, 0), (2, 1), (3, 2), (4, 6), (5, 2), (6, "m"),
              (7, 1), (8, 1), (9, 7), (10, 3), (11, 2), (13, 6), (14, 3),
              (15, 3))
CODE_B_ROT = ((0, 0), (1, "m"), (2, 2), (3, "m"), (4, 6), (5, 5), (6, 6),
              (7, 7), (9, "m"), (10, 0), (11, "m"), (12, 2), (13, 5),
              (14, 0), (15, 7))
CODE_B_REF = ((0, "m"), (1, "m"), (2, 0), (3, 3), (5, 6), (6, "m"), (7, "m"),
              (8, 5), (9, 7), (11, "m"), (12, 5), (13, 1), (14, 3), (15, 0))

# Minimum distances measured at the commit that introduced the benchmark.
# Code B's 16 is certified by the exhaustive scan; the paper states 19, and
# the acceptance gate's criterion 6 keeps failing on that difference.
GOLDEN_A = 12
GOLDEN_B = 16


def _poly_eval(F, coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def pinned_roots(dec0):
    """(xi, root_choices) for the pinned realisation of GF(9)[D_16]."""
    F = dec0.F
    quartic = [F.from_prime_scalar(2), ZERO, ZERO, F.from_prime_scalar(2),
               F.one]
    roots = [x for x in range(F.mult_order)
             if _poly_eval(F, quartic, x) == ZERO]
    if len(roots) != 4:
        raise RuntimeError("x^4 + 2x^3 + 2 must split in GF(81)")
    xi = min(roots)
    root_choices = {}
    for blk in dec0.blocks:
        if blk.kind == da.CROSS_FIXED:
            root_choices[blk.factors[0].coset] = F.pow(xi, 60)
        elif blk.kind == da.FREE:
            exp = 50 if blk.slots[0].field.q == 9 else 65
            root_choices[blk.factors[0].coset] = F.pow(xi, exp)
    return xi, root_choices


def build_decompositions():
    """The default and the pinned decomposition of GF(9)[D_16], hermitian."""
    dec0 = da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
    xi, root_choices = pinned_roots(dec0)
    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN,
                                          root_choices=root_choices,
                                          master=dec0.F)
    return dec, xi


def _specs(dec, xi):
    F = dec.F
    cross = pair9 = pair81 = None
    off = 0
    for blk in dec.blocks:
        if blk.kind == da.CROSS_FIXED:
            cross = off
        elif blk.kind == da.FREE:
            if blk.slots[0].field.q == 9:
                pair9 = (off, off + 1)
            else:
                pair81 = (off, off + 1)
        off += len(blk.slots)
    spec_a = ["zero"] * off
    spec_b = ["zero"] * off
    spec_a[cross] = ("row", F.pow(xi, 70))
    spec_b[cross] = ("row", F.pow(xi, 70))
    spec_a[pair9[1]] = ("row", F.one)
    spec_b[pair9[0]] = ("row", F.minus_one)
    spec_a[pair81[0]] = ("row", F.pow(xi, 14))
    spec_a[pair81[1]] = ("row", F.pow(xi, 2))
    spec_b[pair81[1]] = ("row", F.pow(xi, 23))
    return tuple(spec_a), tuple(spec_b)


def _group_vector(dec, omega, rot_terms, ref_terms):
    F, sub, n = dec.F, dec.alphabet, dec.a_order
    vec = np.zeros(dec.length, dtype=np.int32)
    for part, terms in ((0, rot_terms), (1, ref_terms)):
        for i, e in terms:
            x = F.minus_one if e == "m" else F.pow(omega, e)
            vec[part * n + i] = sub.index(x)
    return vec


def _principal_code(dec, table, vec):
    rows = np.stack([oracle.translate_vector(table, g, vec)
                     for g in range(table.shape[0])])
    return linalg.row_basis(dec.alphabet, rows)


def reference_codes(dec, xi):
    """Generator-route row bases of codes A and B, checked against the labels."""
    table = oracle.dihedral_mul_table(16)
    omega = dec.F.pow(xi, 10)
    rows_a = _principal_code(dec, table,
                             _group_vector(dec, omega, CODE_A_ROT, CODE_A_REF))
    rows_b = _principal_code(dec, table,
                             _group_vector(dec, omega, CODE_B_ROT, CODE_B_REF))
    for spec, rows in zip(_specs(dec, xi), (rows_a, rows_b)):
        if not linalg.row_space_equal(dec.alphabet, ic.ideal_to_code(dec, spec),
                                      rows):
            raise RuntimeError("ideal labels and generator element disagree")
    return rows_a, rows_b
