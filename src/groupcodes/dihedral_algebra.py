"""Block decomposition of dihedral group algebras over finite fields.

For D_n = <a, b | a^n = b^2 = 1, b a b^(-1) = a^(-1)> and an alphabet GF(Q)
with gcd(char, n) = 1, the group algebra splits into 1x1 and 2x2 matrix
blocks over extension fields, one block per closed family of irreducible
factors of x^n - 1.  This module materialises that splitting: every block
records the generator images, and the whole isomorphism is realised as an
invertible (2n x 2n) matrix over the alphabet so elements can be pushed into
block coordinates and pulled back.

Two modes:

* ``euclidean`` — factors of x^n - 1 over GF(Q) grouped by reciprocation
  only.  x - 1 (and x + 1 for even n) give two 1x1 slots each (one ideal
  lattice per character of b); in characteristic 2 the x - 1 block is the
  non-semisimple group algebra of the order-2 quotient.  A self-reciprocal
  factor of degree 2s gives one 2x2 slot over GF(Q^s) via a change of basis
  that moves the diagonal rotation action into the smaller field; a
  reciprocal pair of degree-s factors gives one 2x2 slot over GF(Q^s).

* ``hermitian`` — requires Q = q^2; factors are additionally grouped by the
  coefficient conjugation x -> x^q.  Families fixed by reciprocation split
  into two 2x2 slots over GF(q^r) (the conjugated copy uses the conjugated
  change of basis); families merely closed under conjugation-of-reciprocal
  give one 2x2 slot over GF(q^(2r)); four-element families give two such
  slots.  This is the shape the hermitian dual tables act on.

Slot values are plain master-field ints for 1x1 slots, pairs (c0, c1)
standing for c0*1 + c1*b in the characteristic-2 unit block, and row-major
4-tuples for 2x2 slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import islice

import numpy as np

from . import linalg, oracle
from .embeddings import PowerBasis, block_maps, to_coords, to_elements
from .fields import (ZERO, FieldTable, Subfield, build_field, mult_order,
                     split_prime_power)
from .polyfactor import (BOTH_FIXED, CONJ_FIXED, CROSS_FIXED, FREE,
                         MINUS_ONE, ONE, RECIP_FIXED, RECIPROCAL_PAIR,
                         SELF_RECIPROCAL, Factor, classify_euclidean,
                         classify_hermitian, factor_x_pow_n_minus_1,
                         poly_eval)

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"

# slot kinds
FIELD_SLOT = "field"
C2_SLOT = "c2"
MAT_SLOT = "mat"

# block kinds (the hermitian ones reuse the classification constants)
FIELD_PAIR = "field_pair"  # x -+ 1, odd characteristic: two 1x1 slots
C2_BLOCK = "c2"            # x - 1, characteristic 2: local ring, 3 ideals
SELFREC = "selfrec"        # euclidean self-reciprocal factor: one 2x2 slot
RECIP_PAIR = "recip_pair"  # euclidean reciprocal pair: one 2x2 slot


# ---------------------------------------------------------------------------
# slots and their arithmetic


@dataclass
class Slot:
    """One matrix (or field, or unit-block) summand of the decomposition."""

    kind: str
    basis: PowerBasis        # entry field over the alphabet
    gen_a: object            # image of the rotation a
    gen_b: object            # image of the reflection b
    root: int | None = None  # eigenvalue of a attached to this slot
    offset: int = 0          # first flattened coordinate

    @cached_property
    def ncomp(self) -> int:
        return {FIELD_SLOT: 1, C2_SLOT: 2, MAT_SLOT: 4}[self.kind]

    @property
    def width(self) -> int:
        return self.ncomp * self.basis.d

    @property
    def field(self) -> Subfield:
        return self.basis.block


def slot_one(slot: Slot):
    one = slot.basis.block.master.one
    if slot.kind == FIELD_SLOT:
        return one
    return (one, ZERO) if slot.kind == C2_SLOT else (one, ZERO, ZERO, one)


def slot_zero(slot: Slot):
    return ZERO if slot.kind == FIELD_SLOT else (ZERO,) * slot.ncomp


def slot_mul(slot: Slot, x, y):
    F = slot.basis.block.master
    if slot.kind == FIELD_SLOT:
        return F.mul(x, y)
    if slot.kind == C2_SLOT:
        # (x0 + x1 b)(y0 + y1 b) with b^2 = 1
        return (F.add(F.mul(x[0], y[0]), F.mul(x[1], y[1])),
                F.add(F.mul(x[0], y[1]), F.mul(x[1], y[0])))
    return m2_mul(F, x, y)


def slot_pow(slot: Slot, x, e: int):
    out = slot_one(slot)
    base = x
    while e:
        if e & 1:
            out = slot_mul(slot, out, base)
        base = slot_mul(slot, base, base)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# 2x2 helpers over the master field (row-major 4-tuples)


def m2_mul(F: FieldTable, x, y):
    return (F.add(F.mul(x[0], y[0]), F.mul(x[1], y[2])),
            F.add(F.mul(x[0], y[1]), F.mul(x[1], y[3])),
            F.add(F.mul(x[2], y[0]), F.mul(x[3], y[2])),
            F.add(F.mul(x[2], y[1]), F.mul(x[3], y[3])))


def m2_det(F: FieldTable, x) -> int:
    return F.sub(F.mul(x[0], x[3]), F.mul(x[1], x[2]))


def m2_inv(F: FieldTable, x):
    d = m2_det(F, x)
    if d == ZERO:
        raise ZeroDivisionError("singular 2x2 matrix")
    di = F.inv(d)
    return (F.mul(di, x[3]), F.mul(di, F.neg(x[1])),
            F.mul(di, F.neg(x[2])), F.mul(di, x[0]))


def m2_diag(a: int, d: int):
    return (a, ZERO, ZERO, d)


def m2_antidiag(b: int, c: int):
    return (ZERO, b, c, ZERO)


def transport(F: FieldTable, z, x):
    """Conjugation z^(-1) x z (the change of basis used by 2x2 slots)."""
    return m2_mul(F, m2_inv(F, z), m2_mul(F, x, z))


# ---------------------------------------------------------------------------
# blocks


@dataclass
class Block:
    """A closed factor family together with its slot realisation."""

    kind: str
    slots: tuple[Slot, ...]
    factors: tuple[Factor, ...]
    data: dict = dataclass_field(default_factory=dict)
    index: int = 0

    @property
    def width(self) -> int:
        return sum(s.width for s in self.slots)


def _field_pair_block(F: FieldTable, unit_basis: PowerBasis, factor: Factor,
                      sign_a: int) -> Block:
    slots = (Slot(FIELD_SLOT, unit_basis, sign_a, F.one, root=sign_a),
             Slot(FIELD_SLOT, unit_basis, sign_a, F.minus_one, root=sign_a))
    return Block(FIELD_PAIR, slots, (factor,))


def _c2_block(F: FieldTable, unit_basis: PowerBasis, factor: Factor) -> Block:
    slot = Slot(C2_SLOT, unit_basis, (F.one, ZERO), (ZERO, F.one), root=F.one)
    return Block(C2_BLOCK, (slot,), (factor,))


def _selfrec_slot(F: FieldTable, basis: PowerBasis, alpha: int) -> tuple[Slot, dict]:
    """2x2 slot for a self-reciprocal factor: basis change pushes diag(alpha,
    alpha^-1) and the antidiagonal swap into matrices over the half field."""
    K = basis.block
    ainv = F.inv(alpha)
    t = F.add(alpha, ainv)
    if not K.contains(t) or K.contains(alpha):
        raise AssertionError("self-reciprocal root must be quadratic over the slot field")
    z = (F.one, F.neg(alpha), F.one, F.neg(ainv))
    gen_a = transport(F, z, m2_diag(alpha, ainv))
    gen_b = transport(F, z, m2_antidiag(F.one, F.one))
    if gen_a != (ZERO, F.one, F.minus_one, t):
        raise AssertionError("unexpected transported rotation image")
    if gen_b != (F.one, F.neg(t), ZERO, F.minus_one):
        raise AssertionError("unexpected transported reflection image")
    slot = Slot(MAT_SLOT, basis, gen_a, gen_b, root=alpha)
    return slot, {"t": t, "z": z}


def _pair_slot(F: FieldTable, basis: PowerBasis, alpha: int) -> Slot:
    """2x2 slot for a reciprocal pair: rotation acts as diag(alpha, alpha^-1)."""
    if not basis.block.contains(alpha):
        raise AssertionError("pair root must lie in the slot field")
    gen_a = m2_diag(alpha, F.inv(alpha))
    gen_b = m2_antidiag(F.one, F.one)
    return Slot(MAT_SLOT, basis, gen_a, gen_b, root=alpha)


def _resolve_root(F: FieldTable, factors: tuple[Factor, ...],
                  root_choices: dict | None) -> int:
    """Root for a factor family: the one pinned in ``root_choices`` under the
    first factor's coset, else the first factor's own root."""
    override = (root_choices or {}).get(factors[0].coset)
    if override is None:
        return factors[0].root
    for f in factors:
        if poly_eval(F, f.coeffs, override) == ZERO:
            return override
    raise ValueError("root override is not a root of any factor in the family")


# ---------------------------------------------------------------------------
# the decomposition object


@dataclass
class Decomposition:
    """A group algebra in block coordinates.

    ``mat`` is the (length x length) alphabet matrix whose row g is the
    flattened block image of the group element with index g; ``mat_inv`` is
    its inverse.  For a matrix U of element rows the flattened images are
    the rows of U @ mat.  ``to_digits`` / ``from_digits`` map those images
    to the digits of every slot entry and back (``embeddings.block_maps``).
    """

    group: str
    n: int
    mode: str
    Q: int
    q: int | None
    F: FieldTable
    alphabet: Subfield
    factors: tuple[Factor, ...]
    blocks: tuple[Block, ...]
    a_order: int
    length: int
    mat: np.ndarray
    mat_inv: np.ndarray
    to_digits: np.ndarray
    from_digits: np.ndarray

    def slots(self) -> list[Slot]:
        return [s for b in self.blocks for s in b.slots]

    def group_index(self, i: int, j: int) -> int:
        return (j % 2) * self.a_order + (i % self.a_order)

    @cached_property
    def mul_table(self) -> np.ndarray:
        """Read-only ``table[g, h]`` = index of gh, built on first use."""
        build = (oracle.quaternion_mul_table if self.group == "quaternion"
                 else oracle.dihedral_mul_table)
        table = build(self.n)
        table.flags.writeable = False
        return table

    # -- element <-> block coordinates --------------------------------------

    def rho(self, U: np.ndarray) -> list[list]:
        """Per-slot block values of each element whose coefficient vector
        is a row of U."""
        coords = linalg.matmul(self.alphabet, np.asarray(U, dtype=np.int32),
                               self.mat)
        entries = to_elements(self.alphabet, coords, self.to_digits).tolist()
        slots = self.slots()
        return [[next(it) if s.kind == FIELD_SLOT else tuple(islice(it, s.ncomp))
                 for s in slots] for it in map(iter, entries)]

    def rho_inv(self, values) -> np.ndarray:
        """Coefficient vectors, one row per element, of the elements with
        the given per-slot block values, or with the given flattened
        images: the rows of an alphabet-index array (r, length), in the
        coordinates of ``mat``'s rows."""
        if not isinstance(values, np.ndarray):
            values = to_coords(self.alphabet, _entries(self.slots(), values),
                               self.from_digits)
        return linalg.matmul(self.alphabet, values, self.mat_inv)


def _entries(slots: list[Slot], values) -> list[list]:
    """The block-field entries of per-slot values, one list per element."""
    return [[c for s, v in zip(slots, vals)
             for c in ((v,) if s.kind == FIELD_SLOT else v)] for vals in values]


def _assemble(group: str, n: int, mode: str, Q: int, q: int | None,
              F: FieldTable, alphabet: Subfield, factors, blocks: list[Block],
              a_order: int) -> Decomposition:
    offset = 0
    for bi, b in enumerate(blocks):
        b.index = bi
        for s in b.slots:
            s.offset = offset
            offset += s.width
    length = 2 * a_order
    if offset != length:
        raise AssertionError(f"block widths sum to {offset}, expected {length}")

    slots = [s for b in blocks for s in b.slots]
    # one change of basis per distinct block field
    shared: dict[Subfield, PowerBasis] = {}
    to_digits, from_digits = block_maps(
        [shared.setdefault(s.field, s.basis) for s in slots
         for _ in range(s.ncomp)])
    a_powers: list[list] = [[slot_one(s) for s in slots]]
    for _ in range(1, a_order):
        prev = a_powers[-1]
        a_powers.append([slot_mul(s, p, s.gen_a) for s, p in zip(slots, prev)])
    b_images = [[slot_mul(s, v, s.gen_b) for s, v in zip(slots, vals)]
                for vals in a_powers]
    rows = to_coords(alphabet, _entries(slots, a_powers + b_images),
                     from_digits).astype(np.int32)
    mat_inv = linalg.inverse(alphabet, rows)
    return Decomposition(group=group, n=n, mode=mode, Q=Q, q=q, F=F,
                         alphabet=alphabet, factors=tuple(factors),
                         blocks=tuple(blocks), a_order=a_order, length=length,
                         mat=rows, mat_inv=mat_inv, to_digits=to_digits,
                         from_digits=from_digits)


# ---------------------------------------------------------------------------
# builders


def _euclid_blocks(F: FieldTable, alphabet: Subfield, classes,
                   root_choices: dict | None) -> list[Block]:
    """Euclidean-mode blocks; also the recipe for rotation-side quaternion blocks."""
    Q = alphabet.q
    unit_basis = PowerBasis(alphabet, alphabet)
    rank = {ONE: 0, MINUS_ONE: 1, SELF_RECIPROCAL: 2, RECIPROCAL_PAIR: 3}
    ordered = sorted(classes, key=lambda c: (rank[c.kind], c.f.coset))
    blocks = []
    for cls in ordered:
        if cls.kind == ONE:
            if F.p == 2:
                blocks.append(_c2_block(F, unit_basis, cls.f))
            else:
                blocks.append(_field_pair_block(F, unit_basis, cls.f, F.one))
        elif cls.kind == MINUS_ONE:
            blocks.append(_field_pair_block(F, unit_basis, cls.f, F.minus_one))
        elif cls.kind == SELF_RECIPROCAL:
            family = (cls.f,)
            alpha = _resolve_root(F, family, root_choices)
            basis = PowerBasis(F.subfield(Q**(cls.degree // 2)), alphabet)
            slot, data = _selfrec_slot(F, basis, alpha)
            blocks.append(Block(SELFREC, (slot,), family, data))
        else:
            family = (cls.f, cls.partner)
            alpha = _resolve_root(F, family, root_choices)
            basis = PowerBasis(F.subfield(Q**cls.degree), alphabet)
            slot = _pair_slot(F, basis, alpha)
            blocks.append(Block(RECIP_PAIR, (slot,), family))
    return blocks


def _hermitian_blocks(F: FieldTable, alphabet: Subfield, q: int, classes,
                      root_choices: dict | None) -> list[Block]:
    unit_basis = PowerBasis(alphabet, alphabet)
    rank = {BOTH_FIXED: 0, RECIP_FIXED: 1, CONJ_FIXED: 2, CROSS_FIXED: 3, FREE: 4}
    ordered = sorted(classes, key=lambda c: (rank[c.kind], c.f.coset))
    blocks = []
    for cls in ordered:
        r = cls.degree
        if cls.kind == BOTH_FIXED:
            sign = F.one if cls.f.coset == (0,) else F.minus_one
            if F.p == 2:
                blocks.append(_c2_block(F, unit_basis, cls.f))
            else:
                blocks.append(_field_pair_block(F, unit_basis, cls.f, sign))
            continue
        alpha = _resolve_root(F, cls.members, root_choices)
        if cls.kind == RECIP_FIXED:
            basis = PowerBasis(F.subfield(q**r), alphabet)
            slot1, d1 = _selfrec_slot(F, basis, alpha)
            slot2, d2 = _selfrec_slot(F, basis, F.pow(alpha, q))
            data = {"t": d1["t"], "t_conj": d2["t"], "z": d1["z"],
                    "z_conj": d2["z"], "r": r}
            blocks.append(Block(RECIP_FIXED, (slot1, slot2), cls.members, data))
        elif cls.kind in (CONJ_FIXED, CROSS_FIXED):
            basis = PowerBasis(F.subfield(q**(2 * r)), alphabet)
            slot = _pair_slot(F, basis, alpha)
            blocks.append(Block(cls.kind, (slot,), cls.members, {"r": r}))
        else:  # FREE
            basis = PowerBasis(F.subfield(q**(2 * r)), alphabet)
            slot1 = _pair_slot(F, basis, alpha)
            slot2 = _pair_slot(F, basis, F.pow(alpha, q))
            blocks.append(Block(FREE, (slot1, slot2), cls.members, {"r": r}))
    return blocks


def build_dihedral_decomposition(n: int, Q: int, mode: str = EUCLIDEAN, *,
                                 root_choices: dict | None = None,
                                 master: FieldTable | None = None) -> Decomposition:
    """Decompose GF(Q)[D_n].

    ``root_choices`` optionally pins the root used for a factor family,
    keyed by the family representative's coset; any root of any family
    member is accepted.  ``master`` reuses an already-built master field.
    """
    if n < 1:
        raise ValueError("dihedral rotation order must be at least 1")
    if mode not in (EUCLIDEAN, HERMITIAN):
        raise ValueError(f"unknown mode {mode!r}")
    p, e = split_prime_power(Q)
    if math.gcd(p, n) != 1:
        raise ValueError(f"alphabet characteristic {p} divides the rotation order {n}")
    q = None
    if mode == HERMITIAN:
        if e % 2:
            raise ValueError("hermitian mode needs a square alphabet size")
        q = p**(e // 2)
    order = mult_order(Q, n)
    m = e * order
    if master is not None:
        if master.p != p or master.m % m:
            raise ValueError("supplied master field does not cover the block fields")
        F = master
    else:
        F = build_field(p, m)
    alphabet = F.subfield(Q)
    factors = factor_x_pow_n_minus_1(F, Q, n)
    if mode == EUCLIDEAN:
        blocks = _euclid_blocks(F, alphabet, classify_euclidean(factors),
                                root_choices)
    else:
        blocks = _hermitian_blocks(F, alphabet, q,
                                   classify_hermitian(factors, q), root_choices)
    return _assemble("dihedral", n, mode, Q, q, F, alphabet, factors, blocks, n)
