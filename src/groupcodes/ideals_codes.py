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
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .fields import ZERO, FieldTable, Subfield
from .dihedral_algebra import (
    C2_SLOT,
    FIELD_SLOT,
    MAT_SLOT,
    Decomposition,
    Slot,
    slot_zero,
)

DEFAULT_ENUM_BUDGET = 10 ** 7


class NotAnIdealError(ValueError):
    """The given row space is not closed under the group action."""


# ---------------------------------------------------------------------------
# specs


def slot_ideal_options(slot: Slot) -> list:
    """Every left ideal of a single slot, zero first, full last."""
    if slot.kind == FIELD_SLOT:
        return ["zero", "full"]
    if slot.kind == C2_SLOT:
        return ["zero", "mid", "full"]
    rows = [("row", lam) for lam in slot.field.elements()]
    return ["zero", "e01", *rows, "full"]


def spec_count(dec: Decomposition) -> int:
    total = 1
    for slot in dec.slots():
        total *= len(slot_ideal_options(slot))
    return total


def enumerate_specs(dec: Decomposition, *, budget: int | None = DEFAULT_ENUM_BUDGET):
    """Iterate over every ideal spec of the algebra."""
    if budget is not None and spec_count(dec) > budget:
        raise ValueError(
            f"{spec_count(dec)} ideals exceed the enumeration budget {budget}")
    options = [slot_ideal_options(s) for s in dec.slots()]
    return itertools.product(*options)


def random_spec(dec: Decomposition, rng: np.random.Generator) -> tuple:
    picks = []
    for slot in dec.slots():
        options = slot_ideal_options(slot)
        picks.append(options[int(rng.integers(len(options)))])
    return tuple(picks)


def zero_spec(dec: Decomposition) -> tuple:
    return tuple("zero" for _ in dec.slots())


def full_spec(dec: Decomposition) -> tuple:
    return tuple("full" for _ in dec.slots())


def _slot_ideal_dim(slot: Slot, ideal) -> int:
    """Dimension over the code alphabet of one slot's contribution."""
    d = slot.basis.d
    if ideal == "zero":
        return 0
    if slot.kind == FIELD_SLOT:
        return d
    if slot.kind == C2_SLOT:
        return d if ideal == "mid" else 2 * d
    if ideal == "full":
        return 4 * d
    return 2 * d


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


def _slot_ideal_basis(slot: Slot, ideal) -> list:
    """Slot values spanning the ideal over the code alphabet."""
    F = slot.basis.block.master
    taus = slot.basis.basis
    if ideal == "zero":
        return []
    if slot.kind == FIELD_SLOT:
        return list(taus)
    if slot.kind == C2_SLOT:
        if ideal == "mid":
            return [(t, t) for t in taus]
        return [(t, ZERO) for t in taus] + [(ZERO, t) for t in taus]
    if ideal == "full":
        out = []
        for pos in range(4):
            for t in taus:
                val = [ZERO] * 4
                val[pos] = t
                out.append(tuple(val))
        return out
    if ideal == "e01":
        v0, v1 = ZERO, None
    else:
        v0, v1 = None, ideal[1]
    out = []
    for t in taus:
        r0 = t if v0 is None else (ZERO if v0 == ZERO else F.mul(t, v0))
        r1 = t if v1 is None else (ZERO if v1 == ZERO else F.mul(t, v1))
        out.append((r0, r1, ZERO, ZERO))
        out.append((ZERO, ZERO, r0, r1))
    return out


def ideal_to_code(dec: Decomposition, spec) -> np.ndarray:
    """Reduced row-echelon basis of the group code cut out by `spec`."""
    slots = dec.slots()
    rows = []
    for j, (slot, ideal) in enumerate(zip(slots, spec)):
        for val in _slot_ideal_basis(slot, ideal):
            values = [slot_zero(s) for s in slots]
            values[j] = val
            rows.append(dec.rho_inv(values))
    want = ideal_dimension(dec, spec)
    if not rows:
        return np.zeros((0, dec.length), dtype=np.int32)
    R, pivots = linalg.rref(dec.alphabet, np.array(rows, dtype=np.int32))
    if len(pivots) != want:
        raise AssertionError("ideal basis unexpectedly degenerate")
    return R


# ---------------------------------------------------------------------------
# code -> spec


def _k_line_basis(F: FieldTable, K: Subfield, vectors) -> list:
    """Gaussian elimination over K for length-2 rows, normalized leading 1."""
    basis: list[tuple[int, int]] = []
    for v in vectors:
        v = list(v)
        for b in basis:
            lead = 0 if b[0] != ZERO else 1
            c = v[lead]
            if c != ZERO:
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, b)]
        if all(x == ZERO for x in v):
            continue
        lead = 0 if v[0] != ZERO else 1
        scale = F.inv(v[lead])
        v = tuple(ZERO if x == ZERO else F.mul(scale, x) for x in v)
        basis.append(v)
        basis.sort(key=lambda b: 0 if b[0] != ZERO else 1)
        if len(basis) == 2:
            break
    return basis


def _classify_slot(F: FieldTable, slot: Slot, values):
    if slot.kind == FIELD_SLOT:
        if all(v == ZERO for v in values):
            return "zero"
        return "full"
    if slot.kind == C2_SLOT:
        basis = _k_line_basis(F, slot.field, values)
        if not basis:
            return "zero"
        if len(basis) == 2:
            return "full"
        if basis[0] != (F.one, F.one):
            raise NotAnIdealError("local slot holds a non-invariant line")
        return "mid"
    rows = []
    for v in values:
        rows.append((v[0], v[1]))
        rows.append((v[2], v[3]))
    basis = _k_line_basis(F, slot.field, rows)
    if not basis:
        return "zero"
    if len(basis) == 2:
        return "full"
    (v0, v1), = basis
    if v0 == ZERO:
        return "e01"
    return ("row", v1)


def code_to_ideal(dec: Decomposition, basis: np.ndarray) -> tuple:
    """Recognize a row space as a left ideal and return its spec.

    Raises NotAnIdealError when the span is not invariant under the
    group action.
    """
    basis = np.asarray(basis, dtype=np.int32)
    if basis.ndim != 2 or basis.shape[1] != dec.length:
        raise ValueError("basis must be a matrix with one row per generator")
    R = linalg.row_basis(dec.alphabet, basis)
    slots = dec.slots()
    per_slot = [[] for _ in slots]
    for row in R:
        for vals, bucket in zip(dec.rho(row), per_slot):
            bucket.append(vals)
    spec = tuple(_classify_slot(dec.F, s, vs)
                 for s, vs in zip(slots, per_slot))
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
    if tok in ("zero", "mid", "e01", "full"):
        if tok not in slot_ideal_options(slot) and not (
                tok == "e01" and slot.kind == MAT_SLOT):
            raise ValueError(f"token {tok!r} not valid for a {slot.kind} slot")
        return tok
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
