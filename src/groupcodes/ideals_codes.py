"""Left ideals of a decomposed group algebra, and the codes they cut out.

A left ideal of the block product is a choice, per matrix slot, of a
row-space constraint.  We describe that choice with a flat per-slot tuple
(a *spec*) whose entries are:

  "zero"        the zero ideal of the slot
  "full"        the whole slot
  "mid"         the 1-dim radical ideal of a two-torsion local slot
  "e01"         matrices whose rows are multiples of (0, 1)
  ("row", lam)  matrices whose rows are multiples of (1, lam)

`lam` is an element of the slot's coefficient field (a master-field
element, fields.ZERO for zero).  Field slots admit only "zero"/"full",
local slots "zero"/"mid"/"full".

Every such ideal is the left ideal generated by one element: per slot 0,
1, 1 + b, [[0, 0], [0, 1]] or [[1, lam], [0, 0]].  ``ideal_to_code`` pulls
that element back with one ``rho_inv``, stacks its |G| left translates and
row-reduces them once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .fields import ZERO, FieldTable
from .dihedral_algebra import (
    C2_SLOT,
    FIELD_SLOT,
    MAT_SLOT,
    Decomposition,
    Slot,
    slot_one,
    slot_zero,
)

DEFAULT_ENUM_BUDGET = 10 ** 7


class NotAnIdealError(ValueError):
    """The given row space is not closed under the group action."""


# ---------------------------------------------------------------------------
# specs


# the keyword ideals of each slot kind; 2x2 slots also have every ("row", lam)
_KEYWORDS = {FIELD_SLOT: ("zero", "full"), C2_SLOT: ("zero", "mid", "full"),
             MAT_SLOT: ("zero", "e01", "full")}


def slot_ideal_options(slot: Slot) -> list:
    """Every left ideal of a single slot, zero first, full last."""
    if slot.kind != MAT_SLOT:
        return list(_KEYWORDS[slot.kind])
    rows = [("row", lam) for lam in slot.field.elements()]
    return ["zero", "e01", *rows, "full"]


def _option_count(slot: Slot) -> int:
    return len(_KEYWORDS[slot.kind]) + (slot.field.q if slot.kind == MAT_SLOT else 0)


def _slot_option(slot: Slot, i: int):
    """Entry i of ``slot_ideal_options(slot)``, without building the list."""
    if slot.kind == MAT_SLOT and 2 <= i < 2 + slot.field.q:
        return ("row", slot.field.element(i - 2))
    return _KEYWORDS[slot.kind][i if i < 2 else -1]


def spec_count(dec: Decomposition) -> int:
    return math.prod(_option_count(s) for s in dec.slots())


def enumerate_specs(dec: Decomposition, *, budget: int | None = DEFAULT_ENUM_BUDGET):
    """Iterate over every ideal spec of the algebra."""
    if budget is not None and spec_count(dec) > budget:
        raise ValueError(
            f"{spec_count(dec)} ideals exceed the enumeration budget {budget}")
    options = [slot_ideal_options(s) for s in dec.slots()]
    return itertools.product(*options)


def random_spec(dec: Decomposition, rng: np.random.Generator) -> tuple:
    return tuple(_slot_option(s, int(rng.integers(_option_count(s))))
                 for s in dec.slots())


def zero_spec(dec: Decomposition) -> tuple:
    return tuple("zero" for _ in dec.slots())


def full_spec(dec: Decomposition) -> tuple:
    return tuple("full" for _ in dec.slots())


def _slot_ideal_dim(slot: Slot, ideal) -> int:
    """Dimension over the code alphabet of one slot's contribution: a
    proper ideal ("mid" or a line) fills half of the slot's entries."""
    if ideal == "zero":
        return 0
    return slot.basis.d * (slot.ncomp if ideal == "full" else slot.ncomp // 2)


def ideal_dimension(dec: Decomposition, spec) -> int:
    return sum(_slot_ideal_dim(s, i) for s, i in zip(dec.slots(), spec))


def spec_contains(spec_a, spec_b) -> bool:
    """Slotwise containment: does ideal A contain ideal B?"""
    for a, b in zip(spec_a, spec_b):
        if b == "zero" or a == "full" or a == b:
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# spec -> code


def _slot_generator(slot: Slot, ideal):
    """Slot value whose left multiples are exactly the slot's ideal."""
    F = slot.basis.block.master
    if ideal == "zero":
        return slot_zero(slot)
    if ideal == "full":
        return slot_one(slot)
    if ideal == "mid":
        return (F.one, F.one)              # 1 + b
    if ideal == "e01":
        return (ZERO, ZERO, ZERO, F.one)   # [[0, 0], [0, 1]]
    return (F.one, ideal[1], ZERO, ZERO)   # [[1, lam], [0, 0]]


def ideal_to_code(dec: Decomposition, spec) -> np.ndarray:
    """Reduced row-echelon basis of the group code cut out by `spec`.

    The ideal is the left ideal generated by one element e, so its code is
    the row space of the |G| left translates g*e.
    """
    e = dec.rho_inv([[_slot_generator(s, i)
                      for s, i in zip(dec.slots(), spec)]])[0]
    translates = np.zeros((dec.length, dec.length), dtype=np.int32)
    translates[np.arange(dec.length)[:, None], dec.mul_table] = e
    code = linalg.row_basis(dec.alphabet, translates)
    if code.shape[0] != ideal_dimension(dec, spec):
        raise AssertionError("ideal basis unexpectedly degenerate")
    return code


# ---------------------------------------------------------------------------
# code -> spec


def _line(F: FieldTable, v0: int, v1: int):
    """Ideal label of the rank-one ideal with row direction (v0, v1)."""
    if v0 == ZERO:
        if v1 == ZERO:
            raise AssertionError("a line needs a nonzero direction")
        return "e01"
    return ("row", F.div(v1, v0))


def _classify_slot(F: FieldTable, slot: Slot, values):
    """Ideal of one slot spanned by the block values of a code's rows.

    The row vectors are the C2 pairs, or the two rows of each 2x2 value:
    none nonzero is "zero", all proportional to the first nonzero one is a
    line, anything else is "full".
    """
    if slot.kind == FIELD_SLOT:
        return "full" if any(v != ZERO for v in values) else "zero"
    if slot.kind == C2_SLOT:
        vectors = values
    else:
        vectors = [r for v in values for r in ((v[0], v[1]), (v[2], v[3]))]
    nonzero = [w for w in vectors if w != (ZERO, ZERO)]
    if not nonzero:
        return "zero"
    v0, v1 = nonzero[0]
    if any(F.mul(v0, w1) != F.mul(v1, w0) for w0, w1 in nonzero):
        return "full"
    if slot.kind == C2_SLOT:
        if v0 != v1:
            raise NotAnIdealError("local slot holds a non-invariant line")
        return "mid"
    return _line(F, v0, v1)


def code_to_ideal(dec: Decomposition, basis: np.ndarray) -> tuple:
    """Recognize a row space as a left ideal and return its spec.

    Raises NotAnIdealError when the span is not invariant under the
    group action.
    """
    basis = np.asarray(basis, dtype=np.int32)
    if basis.ndim != 2 or basis.shape[1] != dec.length:
        raise ValueError("basis must be a matrix with one row per generator")
    R = linalg.row_basis(dec.alphabet, basis)
    images = dec.rho(R)
    spec = tuple(_classify_slot(dec.F, s, [vals[i] for vals in images])
                 for i, s in enumerate(dec.slots()))
    if ideal_dimension(dec, spec) != len(R):
        raise NotAnIdealError("row space is smaller than the ideal it spans")
    if len(R) and not linalg.row_space_equal(dec.alphabet, R, ideal_to_code(dec, spec)):
        raise NotAnIdealError("row space is not closed under the group action")
    return spec


# ---------------------------------------------------------------------------
# serialization


def _format_token(slot: Slot, ideal) -> str:
    if isinstance(ideal, tuple):
        lam = ideal[1]
        if lam == ZERO:
            return "row(0)"
        return f"row(g^{slot.field.dlog(lam)})"
    return ideal


def format_spec(dec: Decomposition, spec) -> str:
    parts = []
    pos = 0
    for i, block in enumerate(dec.blocks):
        toks = [_format_token(s, spec[pos + j]) for j, s in enumerate(block.slots)]
        pos += len(block.slots)
        body = toks[0] if len(toks) == 1 else "(" + ",".join(toks) + ")"
        parts.append(f"b{i}:{body}")
    return "; ".join(parts)


def _parse_token(slot: Slot, tok: str):
    tok = tok.strip()
    if tok in _KEYWORDS[slot.kind]:
        return tok
    if tok in ("zero", "mid", "e01", "full") or (
            tok.startswith("row(") and slot.kind != MAT_SLOT):
        raise ValueError(f"token {tok!r} not valid for a {slot.kind} slot")
    if tok == "row(0)":
        return ("row", ZERO)
    if tok.startswith("row(g^") and tok.endswith(")"):
        k = int(tok[len("row(g^"):-1])
        K = slot.field
        return ("row", K.element(1 + k % (K.q - 1)))
    raise ValueError(f"cannot parse ideal token {tok!r}")


def parse_spec(dec: Decomposition, text: str) -> tuple:
    slots = dec.slots()
    spec: list = []
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if len(parts) != len(dec.blocks):
        raise ValueError(f"expected {len(dec.blocks)} block entries")
    for i, part in enumerate(parts):
        label, _, body = part.partition(":")
        if label.strip() != f"b{i}":
            raise ValueError(f"expected block label b{i}, got {label!r}")
        body = body.strip()
        if body.startswith("("):
            if not body.endswith(")"):
                raise ValueError(f"unbalanced parentheses in {part!r}")
            toks = body[1:-1].split(",")
        else:
            toks = [body]
        block = dec.blocks[i]
        if len(toks) != len(block.slots):
            raise ValueError(
                f"block b{i} has {len(block.slots)} slots, got {len(toks)} entries")
        spec.extend(_parse_token(s, t) for s, t in zip(block.slots, toks))
    return tuple(spec)
