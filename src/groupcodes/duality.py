"""Dual codes of group-algebra ideals, computed block by block.

For each block kind the dual of an ideal spec is again an ideal spec, and
the transformation is an explicit involution on the per-slot labels; so is
the hull, the ideal's intersection with its dual, a slotwise meet.  The
bilinear form is the coefficientwise pairing on the group algebra; in
hermitian mode the second argument is twisted by the conjugation of the
quadratic subfield pair.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .fields import ZERO, build_field, split_prime_power
from .polyfactor import CONJ_FIXED, CROSS_FIXED, FREE, RECIP_FIXED
from .dihedral_algebra import (
    C2_BLOCK,
    FIELD_PAIR,
    HERMITIAN,
    RECIP_PAIR,
    SELFREC,
    Block,
    Decomposition,
)
from .quaternion_algebra import (
    B_PAIR,
    B_SELFREC_SKEW,
    B_SELFREC_SPLIT,
    B_SIDE_KINDS,
    B_UNIT,
)
from .ideals_codes import (
    SpecBatch,
    _line,
    ideal_to_code,
    slot_ideal_options,
    spec_contains,
)

_ZERO_FULL = {"zero": "full", "full": "zero"}


class NotSelfOrthogonalError(ValueError):
    """The chosen ideal is not contained in its dual."""


# ---------------------------------------------------------------------------
# per-block dual maps


def _dual_proper(dec: Decomposition, block: Block, j: int, x):
    """Dual label, in slot j, of a proper ideal "mid", "e01" or ("row", lam).

    A line with row direction (v0, v1) dualises to the line whose direction
    is M (v0^e, v1^e): a Frobenius power e of the direction followed by a
    fixed 2x2 matrix M.  For the two-slot kinds the input comes from the
    other slot of the block.
    """
    kind = block.kind
    if x == "mid" or kind in B_SIDE_KINDS:
        return x
    F, q, r = dec.F, dec.q, block.data.get("r")
    if kind in (SELFREC, RECIP_PAIR):
        e = 1
    elif kind in (CONJ_FIXED, CROSS_FIXED):
        e = q ** r
    elif kind == RECIP_FIXED:
        e = q if j else q ** (r - 1)
    elif kind == FREE:
        e = q if j else q ** (2 * r - 1)
    else:
        raise ValueError(f"unknown block kind {kind!r}")
    v0, v1 = (ZERO, F.one) if x == "e01" else (F.one, F.pow(x[1], e))
    if kind in (SELFREC, RECIP_FIXED):
        # M = [[t, 2], [-2, -t]]; the conjugated slot uses t^q
        t = block.data["t_conj" if j else "t"]
        two = F.from_prime_scalar(2)
        v0, v1 = (F.add(F.mul(t, v0), F.mul(two, v1)),
                  F.neg(F.add(F.mul(two, v0), F.mul(t, v1))))
    elif kind == CROSS_FIXED:
        v0, v1 = F.neg(v1), v0            # M = [[0, -1], [1, 0]]
    else:
        v1 = F.neg(v1)                    # M = diag(1, -1)
    return _line(F, v0, v1)


# the kinds whose slot j dualises the ideal of the other slot
_SWAPPED = (RECIP_FIXED, FREE)


def _dual_label(dec: Decomposition, block: Block, j: int, x):
    """Dual label, in slot j, of the slot ideal x that slot j reads."""
    if x in _ZERO_FULL:
        return _ZERO_FULL[x]
    return _dual_proper(dec, block, j, x)


def dual_block(dec: Decomposition, block: Block, ideals: tuple) -> tuple:
    """Dual of one block's slot-ideal tuple under the algebra's pairing."""
    if block.kind in _SWAPPED:
        ideals = ideals[::-1]
    return tuple(_dual_label(dec, block, j, x) for j, x in enumerate(ideals))


def _block_ideals(dec: Decomposition, spec):
    pos = 0
    for block in dec.blocks:
        k = len(block.slots)
        yield block, tuple(spec[pos:pos + k])
        pos += k


def dual_spec(dec: Decomposition, spec) -> tuple:
    """Spec of the dual code, under the pairing the algebra was built for."""
    out: list = []
    for block, ideals in _block_ideals(dec, spec):
        out.extend(dual_block(dec, block, ideals))
    return tuple(out)


def spec_meet(spec_a, spec_b) -> tuple:
    """Spec of the intersection of two ideals, slot by slot: the ideals of
    a slot are zero, full and its proper ideals ("mid" or the lines), so
    "full" meets x in x, x meets itself in x, and any other pair meets in
    "zero"."""
    meet = []
    for a, b in zip(spec_a, spec_b):
        if a == "full" or a == b:
            meet.append(b)
        elif b == "full":
            meet.append(a)
        else:
            meet.append("zero")
    return tuple(meet)


def codes_with_duals(dec: Decomposition, specs):
    """The codes of the specs and the codes of their duals, as two stacked
    RREFs (R, pivots), code i of each being ``R[i, :len(pivots[i])]``.

    One ``ideal_to_code`` builds them all, each spec followed by its dual.
    """
    R, pivots = ideal_to_code(
        dec, SpecBatch(x for s in specs for x in (s, dual_spec(dec, s))))
    return (R[0::2], pivots[0::2]), (R[1::2], pivots[1::2])


def dual_codes(dec: Decomposition, R: np.ndarray, pivots) -> tuple:
    """The duals (H, reds) of the codes of a stacked RREF (R, pivots)
    under the algebra's pairing, by transposition: the euclidean dual of
    [I | P] is [-P^T | I] (MacWilliams & Sloane, ch. 1 section 2), the
    rows of ``linalg.nullspace``, and the hermitian dual its entrywise
    conjugate x -> x^q.  reds[i] are the columns off code i's pivots,
    ascending, and H[i, :len(reds[i])] is the identity there; zero rows
    fill H to the stack's largest dual dimension.
    """
    sub, (B, m, n) = dec.alphabet, R.shape
    # S[b, c] is row i of code b where c is its i-th pivot, else zero (the
    # zero rows below each basis go to an extra row n)
    at = np.array([p + (n,) * (m - len(p)) for p in pivots], dtype=np.intp)
    b = np.arange(B)[:, None]
    S = np.zeros((B, n + 1, n), dtype=R.dtype)
    S[b, at] = R
    pivot = S[:, :n].any(axis=2)
    r = n - pivot.sum(axis=1)
    red = np.argsort(pivot, axis=1, kind="stable")[:, :r.max(initial=0)]
    # row j of dual b is -S[b, :, red[b, j]], with 1 at red[b, j] while
    # j < r[b], and zero past it, where -S has its only nonzero entry
    H = sub.neg(S[b, :n, red])
    j = np.arange(red.shape[1])
    H[b, j, red] = j < r[:, None]
    if dec.mode == HERMITIAN:
        H = linalg.entrywise_pow(sub, H, dec.q)
    return H, [tuple(x[:k]) for x, k in zip(red.tolist(), r.tolist())]


# ---------------------------------------------------------------------------
# self-orthogonality


def is_self_orthogonal(dec: Decomposition, spec) -> tuple[bool, int | None]:
    """Whether the ideal sits inside its own dual; on failure, which block."""
    blocks = _block_ideals(dec, spec)
    duals = _block_ideals(dec, dual_spec(dec, spec))
    for i, ((_, ideals), (_, dual)) in enumerate(zip(blocks, duals)):
        if not spec_contains(dual, ideals):
            return False, i
    return True, None


def _inside(x, label) -> bool:
    """Whether slot ideal x lies in the slot ideal named by a dual label."""
    return x == "zero" or label == "full" or label == x


def selforth_block_options(dec: Decomposition, block: Block) -> list[tuple]:
    """All self-orthogonal slot-ideal tuples for one block, in the order of
    the product of the slots' options.

    A dual label reads the ideal of one slot only, so each option's label
    is computed once: option x of slot j gives the label of the dual's
    slot j, or of the other slot for a swapped kind.  Without a swap each
    slot is tested on its own.  With one, an option x of slot 0 whose
    label is not "full" (every x but "zero") leaves slot 1 two options to
    pair with, "zero" and that label, instead of all of them.
    """
    k, swap = len(block.slots), block.kind in _SWAPPED
    options = [[(x, _dual_label(dec, block, k - 1 - j if swap else j, x))
                for x in slot_ideal_options(s)]
               for j, s in enumerate(block.slots)]
    if not swap:
        return list(itertools.product(
            *[[x for x, label in opts if _inside(x, label)] for opts in options]))
    labels = dict(options[1])
    out = []
    for x, x_label in options[0]:
        # the slot-1 options inside x_label, in slot 1's order ("zero" is
        # its first option), each once though x_label may be "zero"
        ys = (labels if x_label == "full" else
              [y for y in dict.fromkeys(("zero", x_label)) if y in labels])
        out.extend((x, y) for y in ys
                   if _inside(x, labels[y]) and _inside(y, x_label))
    return out


def enumerate_selforth(dec: Decomposition):
    """Iterate over every self-orthogonal ideal spec, in the order of the
    product of the blocks' options.

    A head, one option of every block but the last, is joined once, and
    each spec is a head joined with an option of the last block.
    """
    *outer, last = [selforth_block_options(dec, b) for b in dec.blocks]
    for combo in itertools.product(*outer):
        head = tuple(itertools.chain.from_iterable(combo))
        for option in last:
            yield head + option


def count_selforth(dec: Decomposition) -> int:
    """Closed-form count of self-orthogonal ideals."""
    p = split_prime_power(dec.Q)[0]
    total = 1
    for block in dec.blocks:
        kind = block.kind
        m = block.slots[0].field.q
        if kind in (FIELD_PAIR, B_UNIT):
            f = 1
        elif kind == C2_BLOCK:
            f = 2
        elif kind == SELFREC:
            # char 2 drops the 2lam term, fixing every proper ideal; odd
            # characteristic demands lam^2 + t*lam + 1 = 0, insoluble in K
            f = m + 2 if p == 2 else 1
        elif kind == RECIP_PAIR:
            # odd characteristic pins lam = -lam; char 2 fixes every line
            f = m + 2 if p == 2 else 3
        elif kind in (B_SELFREC_SPLIT, B_SELFREC_SKEW, B_PAIR):
            f = m + 2
        elif kind == RECIP_FIXED:
            f = 3 * m + 6
        elif kind in (CONJ_FIXED, CROSS_FIXED):
            f = math.isqrt(m) + 2
        elif kind == FREE:
            f = 3 * m + 6
        else:
            raise ValueError(f"unknown block kind {kind!r}")
        total *= f
    return total


# ---------------------------------------------------------------------------
# the scalar equations behind the rank-one self-orthogonal labels


LAMBDA_KINDS = ("neg_conj", "neg_inv_conj", "inv_conj")


def lambda_solution_set(kind: str, q: int, r: int):
    """Solutions x in GF(q^{2r}) of one of the three conjugation equations.

    neg_conj       x + x^{q^r} = 0        (odd characteristic, q^r many)
    neg_inv_conj   x * x^{q^r} = -1       (odd characteristic, q^r + 1 many)
    inv_conj       x * x^{q^r} = 1        (characteristic two, q^r + 1 many)

    Returns the subfield GF(q^{2r}) inside a fresh master field together
    with the sorted solution list.
    """
    if kind not in LAMBDA_KINDS:
        raise ValueError(f"unknown equation kind {kind!r}")
    p, e = split_prime_power(q)
    if kind == "inv_conj":
        if p != 2:
            raise ValueError("inv_conj is the characteristic-two equation")
    elif p == 2:
        raise ValueError(f"{kind} needs odd characteristic")
    F = build_field(p, 2 * r * e)
    K = F.subfield(q ** (2 * r))
    qr = q ** r
    sols = []
    for x in K.elements():
        if kind == "neg_conj":
            ok = F.add(x, F.pow(x, qr)) == ZERO
        elif kind == "neg_inv_conj":
            ok = x != ZERO and F.mul(x, F.pow(x, qr)) == F.minus_one
        else:
            ok = x != ZERO and F.mul(x, F.pow(x, qr)) == F.one
        if ok:
            sols.append(x)
    expected = qr if kind == "neg_conj" else qr + 1
    if len(sols) != expected:
        raise AssertionError("solution census disagrees with the count")
    return K, sols
