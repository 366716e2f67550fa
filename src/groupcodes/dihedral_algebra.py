"""Block decomposition of dihedral group algebras over finite fields.

For D_n = <a, b | a^n = b^2 = 1, b a b^(-1) = a^(-1)> and an alphabet GF(Q)
with gcd(char, n) = 1, the group algebra splits into 1x1 and 2x2 matrix
blocks over extension fields, one block per closed family of irreducible
factors of x^n - 1.  This module materialises that splitting: every block
records the generator images, and the whole isomorphism is realised as an
invertible (2n x 2n) matrix over the alphabet so elements can be pushed into
block coordinates and pulled back.  The matrix is inverted in closed form,
by Fourier inversion, not by elimination.

Every build, of either group, checks per slot that its generator images
have their entries in the slot's field, satisfy the group's relations and
have the slot's root as an eigenvalue of the a-image, and then that the
matrix times its inverse is the identity.  Images that satisfy the
relations extend to an algebra map into the slots; the identity makes it
a bijection, so the map is an algebra isomorphism with each slot on its
own root.

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
from functools import cache, cached_property
from itertools import islice

import numpy as np

from . import linalg, oracle
from .embeddings import PowerBasis
from .fields import (MAP_CELL_BUDGET, MAX_TABLE_ORDER, ZERO, FieldTable,
                     Subfield, build_field, mult_order, split_prime_power)
from .polyfactor import (BOTH_FIXED, CONJ_FIXED, CROSS_FIXED, FREE,
                         MINUS_ONE, ONE, RECIP_FIXED, RECIPROCAL_PAIR,
                         Factor, classify_euclidean, classify_hermitian,
                         factor_x_pow_n_minus_1, poly_eval)

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
    root: int                # eigenvalue of a attached to this slot
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


def slot_entries(slot: Slot, x) -> tuple:
    """The block-field entries of a slot value."""
    return (x,) if slot.kind == FIELD_SLOT else x


def slot_mul(slot: Slot, x, y):
    F = slot.basis.block.master
    if slot.kind == FIELD_SLOT:
        return F.mul(x, y)
    if slot.kind == C2_SLOT:
        # (x0 + x1 b)(y0 + y1 b) with b^2 = 1
        return (F.add(F.mul(x[0], y[0]), F.mul(x[1], y[1])),
                F.add(F.mul(x[0], y[1]), F.mul(x[1], y[0])))
    return m2_mul(F, x, y)


# ---------------------------------------------------------------------------
# 2x2 helpers over the master field (row-major 4-tuples)


def m2_mul(F: FieldTable, x, y):
    return (F.add(F.mul(x[0], y[0]), F.mul(x[1], y[2])),
            F.add(F.mul(x[0], y[1]), F.mul(x[1], y[3])),
            F.add(F.mul(x[2], y[0]), F.mul(x[3], y[2])),
            F.add(F.mul(x[2], y[1]), F.mul(x[3], y[3])))


# ---------------------------------------------------------------------------
# blocks


@dataclass
class Block:
    """A closed factor family together with its slot realisation."""

    kind: str
    slots: tuple[Slot, ...]
    factors: tuple[Factor, ...]
    data: dict = dataclass_field(default_factory=dict)

    @property
    def width(self) -> int:
        return sum(s.width for s in self.slots)


def _unit_block(F: FieldTable, unit_basis: PowerBasis, factor: Factor,
                sign: int) -> Block:
    """Block of x - sign: the local ring GF(Q)[C_2] in characteristic 2,
    else two 1x1 slots, one per character of b."""
    if F.p == 2:
        slot = Slot(C2_SLOT, unit_basis, (F.one, ZERO), (ZERO, F.one), root=F.one)
        return Block(C2_BLOCK, (slot,), (factor,))
    slots = (Slot(FIELD_SLOT, unit_basis, sign, F.one, root=sign),
             Slot(FIELD_SLOT, unit_basis, sign, F.minus_one, root=sign))
    return Block(FIELD_PAIR, slots, (factor,))


def _selfrec_slot(F: FieldTable, basis: PowerBasis, alpha: int,
                  c: int) -> Slot:
    """2x2 slot for a self-reciprocal factor: diag(alpha, alpha^-1) and the
    antidiagonal [[0, c], [c, 0]] conjugated by z = [[c, -alpha],
    [c, -alpha^-1]] into matrices over the half field, written in closed
    form with t = alpha + alpha^-1.  c is 1 for a reflection, i where
    b^2 = -1."""
    t = F.add(alpha, F.inv(alpha))
    gen_a = (ZERO, F.inv(c), F.neg(c), t)
    gen_b = (c, F.neg(t), ZERO, F.neg(c))
    return Slot(MAT_SLOT, basis, gen_a, gen_b, root=alpha)


def _pair_slot(F: FieldTable, basis: PowerBasis, alpha: int, top: int) -> Slot:
    """2x2 slot for a reciprocal pair: rotation acts as diag(alpha, alpha^-1)
    and b as [[0, top], [1, 0]], top being 1, or -1 where b^2 = -1."""
    return Slot(MAT_SLOT, basis, (alpha, ZERO, ZERO, F.inv(alpha)),
                (ZERO, top, F.one, ZERO), root=alpha)


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
    its inverse, by Fourier inversion (``_fourier_inverse``).  For a matrix
    U of element rows the flattened images are the rows of U @ mat.
    ``by_field`` groups the slot entries by block field: each field's one
    ``PowerBasis`` maps the flattened images of its entries to the entries
    and back, one ``unflatten`` or ``flatten`` per field.
    """

    group: str
    n: int
    mode: str
    Q: int
    q: int | None
    F: FieldTable
    alphabet: Subfield
    blocks: tuple[Block, ...]
    a_order: int
    length: int
    mat: np.ndarray
    mat_inv: np.ndarray
    by_field: tuple[tuple, ...]

    def slots(self) -> list[Slot]:
        return [s for b in self.blocks for s in b.slots]

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
        slots = self.slots()
        entries = np.empty((len(coords), sum(s.ncomp for s in slots)),
                           dtype=np.int64)
        for basis, _, pos, cols in self.by_field:
            entries[:, pos] = basis.unflatten(coords[:, cols])
        return [[next(it) if s.kind == FIELD_SLOT else tuple(islice(it, s.ncomp))
                 for s in slots] for it in map(iter, entries.tolist())]

    def rho_inv(self, values) -> np.ndarray:
        """Coefficient vectors, one row per element, of the elements with
        the given per-slot block values, or with the given flattened
        images: the rows of an alphabet-index array (r, length), in the
        coordinates of ``mat``'s rows."""
        if not isinstance(values, np.ndarray):
            values = _flatten(self.by_field, self.slots(), values, self.length)
        return linalg.matmul(self.alphabet, values, self.mat_inv)


def _by_field(slots: list[Slot]) -> tuple[tuple, ...]:
    """Per block field, in order of first appearance: its one power basis,
    its entries (slot, component), their positions in an element's entry
    list and their flattened coordinates, d a row."""
    groups: dict[PowerBasis, list] = {}
    entries = [(s, u) for s in slots for u in range(s.ncomp)]
    for k, (s, _) in enumerate(entries):
        groups.setdefault(s.basis, []).append(k)
    return tuple((basis, [entries[k] for k in pos], np.array(pos),
                  np.add.outer([entries[k][0].offset + entries[k][1] * basis.d
                                for k in pos], np.arange(basis.d)))
                 for basis, pos in groups.items())


def _flatten(by_field, slots: list[Slot], values, length: int) -> np.ndarray:
    """The flattened images (r, length) of per-slot block values, one
    ``flatten`` per block field."""
    entries = np.array([[c for s, v in zip(slots, vals)
                         for c in slot_entries(s, v)]
                        for vals in values], dtype=np.int64
                       ).reshape(len(values), sum(s.ncomp for s in slots))
    out = np.empty((len(values), length), dtype=np.int32)
    for basis, _, pos, cols in by_field:
        out[:, cols] = basis.flatten(entries[:, pos])
    return out


def _check_maps(length: int, e: int) -> None:
    """Refuse, before any field is built, a group algebra whose block maps
    ``linalg.matmul`` would expand to over ``MAP_CELL_BUDGET`` float64
    cells, (length e)^2 for an alphabet of degree e."""
    size = length * e
    if size * size > MAP_CELL_BUDGET:
        raise ValueError(
            f"the group algebra's {size} x {size} block maps exceed "
            f"the budget of {MAP_CELL_BUDGET} cells")


def _check_alphabet(Q: int) -> None:
    """Refuse, before any field is built, an alphabet of more elements than
    its dense index tables may have."""
    if Q > MAX_TABLE_ORDER:
        raise ValueError(f"alphabet GF({Q}) is over the {MAX_TABLE_ORDER}"
                         f"-element alphabet limit")


def _assemble(group: str, n: int, mode: str, q: int | None,
              alphabet: Subfield, blocks: list[Block],
              a_order: int) -> Decomposition:
    offset = 0
    for b in blocks:
        for s in b.slots:
            s.offset = offset
            offset += s.width
    length = 2 * a_order
    if offset != length:
        raise AssertionError(f"block widths sum to {offset}, expected {length}")

    slots = [s for b in blocks for s in b.slots]
    twist = a_order // 2 if group == "quaternion" else 0
    a_powers: list[list] = [[slot_one(s) for s in slots]]
    for _ in range(1, a_order):
        prev = a_powers[-1]
        a_powers.append([slot_mul(s, p, s.gen_a) for s, p in zip(slots, prev)])
    b_images = [[slot_mul(s, v, s.gen_b) for s, v in zip(slots, vals)]
                for vals in a_powers]
    _check_relations(slots, a_powers, b_images, twist)
    by_field = _by_field(slots)
    mat = _flatten(by_field, slots, a_powers + b_images, length)
    mat_inv = _fourier_inverse(alphabet, by_field,
                               mat[_inverses(a_order, twist)])
    ident = np.eye(length, dtype=np.int32)  # index 1 is the element one
    if not np.array_equal(linalg.matmul(alphabet, mat, mat_inv), ident):
        raise AssertionError("the block map is not invertible: mat times "
                             "its Fourier inverse is not the identity")
    return Decomposition(group=group, n=n, mode=mode, Q=alphabet.q, q=q,
                         F=alphabet.master, alphabet=alphabet,
                         blocks=tuple(blocks), a_order=a_order, length=length,
                         mat=mat, mat_inv=mat_inv, by_field=by_field)


def _check_relations(slots: list[Slot], a_powers: list[list],
                     b_images: list[list], twist: int) -> None:
    """Refuse generator images that do not define an algebra map onto
    their slots, each on its own root.  Per slot: every entry of the a-
    and b-image lies in the slot's field; a^order = 1, b^2 = a^twist and
    b a = a^(-1) b, read against the powers a^i (``a_powers``) and a^i b
    (``b_images``) that the block map is made of; and the slot's root is
    an eigenvalue of its a-image."""
    for k, s in enumerate(slots):
        F, x, r = s.field.master, s.gen_a, s.root
        if not all(map(s.field.contains,
                       slot_entries(s, x) + slot_entries(s, s.gen_b))):
            raise AssertionError(f"slot {k}'s generator images leave its "
                                 f"field GF({s.field.q})")
        if (slot_mul(s, a_powers[-1][k], x) != slot_one(s)
                or slot_mul(s, s.gen_b, s.gen_b) != a_powers[twist][k]
                or slot_mul(s, s.gen_b, x) != b_images[-1][k]):
            raise AssertionError(f"slot {k}'s generator images break the "
                                 f"group relations")
        if s.kind == FIELD_SLOT:
            residue = F.sub(x, r)
        elif s.kind == C2_SLOT:  # x0 + x1 b has the one eigenvalue x0 + x1
            residue = F.sub(F.add(*x), r)
        else:  # det(x - r)
            residue = F.sub(F.mul(F.sub(x[0], r), F.sub(x[3], r)),
                            F.mul(x[1], x[2]))
        if residue != ZERO:
            raise AssertionError(f"slot {k}'s root is not an eigenvalue of "
                                 f"its rotation image")


def _inverses(a_order: int, twist: int) -> np.ndarray:
    """The index of g^(-1) for each group index g: a^i -> a^(-i), and
    a^i b -> a^(i + twist) b, where (a^i b)^2 = a^twist: twist is 0 in
    D_n and n in Q_n."""
    i = np.arange(a_order)
    return np.concatenate([-i % a_order, a_order + (i + twist) % a_order])


# the entry of y that each entry of x meets in theta(xy), for two values
# x, y of a slot: theta(xy) is xy / 2 in a 1x1 slot, x0 y0 + x1 y1 in a c2
# slot and the matrix trace x0 y0 + x1 y2 + x2 y1 + x3 y3 in a 2x2 slot
_TRACE_PARTNER = {FIELD_SLOT: (0,), C2_SLOT: (0, 1), MAT_SLOT: (0, 2, 1, 3)}


def _fourier_inverse(alphabet: Subfield, by_field: tuple[tuple, ...],
                     mat_of_inverses: np.ndarray) -> np.ndarray:
    """mat's inverse in closed form, by Fourier inversion, from the rows
    of mat at the inverse group elements.

    The identity coefficient of an element x is a linear form on its
    block images: the sum over slots of Tr(theta(X)) / a_order, where X
    is the slot's image, Tr the trace from its entry field to the
    alphabet, and theta the matrix trace of a 2x2 slot, x0 of a c2 slot
    and x / 2 of a 1x1 slot (Serre, Linear Representations of Finite
    Groups, 6.2).  The coefficient of h in x is that of h^(-1) x, and
    images multiply slot by slot, so mat_inv = B @ mat[inv].T with B
    block diagonal: entry u of a slot takes its trace partner's rows of
    mat[inv].T, times the trace form of its field's power basis and the
    slot's scale.  One stacked product per distinct block field.
    """
    F, length = alphabet.master, len(mat_of_inverses)
    a_order = length // 2
    columns = mat_of_inverses.T
    scale = cache(lambda kind: alphabet.index(F.inv(F.from_prime_scalar(
        a_order * (2 if kind == FIELD_SLOT else 1)))))
    mat_inv = np.empty_like(mat_of_inverses)
    for basis, entries, _, cols in by_field:
        # each entry's scale, and how far its partner's coordinates lie
        w = [scale(s.kind) for s, _ in entries]
        shift = [(_TRACE_PARTNER[s.kind][u] - u) * basis.d for s, u in entries]
        G = alphabet.mul(basis.trace_form, np.array(w)[:, None, None])
        mat_inv[cols] = linalg.matmul(
            alphabet, G, columns[cols + np.array(shift)[:, None]])
    return mat_inv


# ---------------------------------------------------------------------------
# builders


def _power_bases(alphabet: Subfield):
    """d -> the power basis of GF(Q^d) over the alphabet GF(Q), one object
    per d, so that all slots over one block field share it."""
    return cache(lambda d: PowerBasis(
        alphabet.master.subfield(alphabet.q**d), alphabet))


def _blocks(F: FieldTable, basis, classes, q: int | None,
            root_choices: dict | None) -> list[Block]:
    """The blocks of the factor families ``classes``, in their order,
    with their slots' power bases from ``basis`` (``_power_bases``).

    One rule serves both metrics (Brochero Martinez, FFA 35, 2015), with
    Q = |alphabet| and r the degree of a family's representative: x -+ 1
    give unit blocks, a self-reciprocal family gives 2x2 slots over
    GF(Q^(r/2)) and any other family 2x2 slots over GF(Q^r).  With
    ``q`` = sqrt(Q) the families are hermitian ones, a recip_fixed or free
    family takes a second slot at the conjugate root alpha^q, and a block
    has its family's kind; with ``q`` None they are euclidean ones, and a
    block is SELFREC or RECIP_PAIR.  The quaternion builder takes its
    rotation-side blocks from here.
    """
    blocks = []
    for cls in classes:
        if cls.kind in (ONE, MINUS_ONE, BOTH_FIXED):
            sign = F.one if cls.f.coset == (0,) else F.minus_one
            blocks.append(_unit_block(F, basis(1), cls.f, sign))
            continue
        alpha = _resolve_root(F, cls.members, root_choices)
        roots = ((alpha, F.pow(alpha, q)) if cls.kind in (RECIP_FIXED, FREE)
                 else (alpha,))
        data = {} if q is None else {"r": cls.degree}
        if cls.kind in (RECIPROCAL_PAIR, CONJ_FIXED, CROSS_FIXED, FREE):
            slots = tuple(_pair_slot(F, basis(cls.degree), x, F.one)
                          for x in roots)
            kind = RECIP_PAIR
        else:  # SELF_RECIPROCAL or RECIP_FIXED
            slots = tuple(_selfrec_slot(F, basis(cls.degree // 2), x, F.one)
                          for x in roots)
            # t and t_conj: the traces of the slots' a-images
            data.update(zip(("t", "t_conj"), (s.gen_a[3] for s in slots)))
            kind = SELFREC
        blocks.append(Block(kind if q is None else cls.kind, slots,
                            cls.members, data))
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
    _check_alphabet(Q)
    _check_maps(2 * n, e)
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
    classes = (classify_euclidean(factors) if q is None
               else classify_hermitian(factors, q))
    blocks = _blocks(F, _power_bases(alphabet), classes, q, root_choices)
    return _assemble("dihedral", n, mode, q, alphabet, blocks, n)
