"""Exact arithmetic in one master finite field GF(p^m) and its subfields.

All algebra in this package happens inside a single "master" field chosen
large enough to contain every root and block field a given computation
needs.  A field element is a plain int:

* ``ZERO`` (== -1) is the zero element;
* ``k`` in ``[0, p^m - 2]`` is ``xi**k`` for the fixed primitive element
  ``xi`` (the class of ``x`` modulo the chosen modulus).

The field keeps two tables, ``exp`` and ``log``.  Multiplication and
inversion are exponent arithmetic; addition goes through the Zech logarithm
``log(1 + xi**k)``, which is computed when it is needed rather than stored:
adding 1 to the packed vector ``exp[k]`` changes only its constant
coefficient, so it is one ``log`` lookup.  Subfields are viewed through
:class:`Subfield`, which also carries dense numpy lookup tables so
code-level linear algebra can run on small integer indices instead of
master-field logs.

The modulus is the lexicographically smallest primitive polynomial of
degree m over GF(p) (coefficients compared from the x^(m-1) coefficient
down to the constant), so every run of the library reproduces the same
discrete logs.  A monic f is primitive exactly when x has order p^m - 1
modulo f; the search tests the candidates in that order, a block at a
time, as powers of a stack of companion matrices.
"""

from __future__ import annotations

import math
import weakref
from functools import lru_cache

import numpy as np

ZERO = -1

# Hard ceiling on master-field size: the exp and log tables are O(p^m).
DEFAULT_FIELD_BUDGET = 2**24
# Hard ceiling on the cells of a group algebra's dense length x length
# block maps (``Decomposition.mat`` and ``mat_inv``): length <= 4096.
MAP_CELL_BUDGET = 2**24


class FieldBudgetError(ValueError):
    """Raised when a requested field would exceed the table budget."""


class MissingSubfieldError(ValueError):
    """Raised when a requested subfield does not embed in the master field."""


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division; n is small)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n (requires gcd(a, n) = 1)."""
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1, no multiplicative order")
    order, x = 1, a % n
    while x != 1 % n:
        x, order = x * a % n, order + 1
    return order


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime; raises if q is not a prime power."""
    primes = prime_factors(q) if q >= 2 else []
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return p, e


# ---------------------------------------------------------------------------
# modulus search


_SEARCH_BLOCK = 32


def _powers_are_one(P: np.ndarray, e: int, p: int) -> np.ndarray:
    """Whether P^e = I (e >= 1) for each matrix of a stack over GF(p), by
    left-to-right square-and-multiply: one product and one reduction of the
    whole stack per step."""
    R = P
    for bit in bin(e)[3:]:
        R = R @ R % p
        if bit == "1":
            R = R @ P % p
    return (R == np.eye(P.shape[-1], dtype=np.int64)).all(axis=(1, 2))


def smallest_primitive_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree m.

    Candidates x^m + c_{m-1} x^{m-1} + ... + c_0 are ordered by the tuple
    (c_{m-1}, ..., c_0), the base-p digits of their index, and tested
    _SEARCH_BLOCK indices at a time as one stack of companion matrices P,
    the maps v -> x v on coefficient vectors.  f is primitive iff x has
    order N = p^m - 1 modulo f, that is P^N = I and P^(N/l) != I for each
    prime l | N: an element of that order forces the quotient ring to be a
    field.  Returned little-endian including the leading 1.
    """
    group_order = p**m - 1
    prime_divs = prime_factors(group_order)
    for start in range(0, p**m, _SEARCH_BLOCK):
        index = np.arange(start, min(start + _SEARCH_BLOCK, p**m))
        tails = index[:, None] // p ** np.arange(m) % p  # c_0 .. c_{m-1}
        tails = tails[tails[:, 0] != 0]  # x | f: x is not a unit
        P = np.broadcast_to(np.eye(m, k=1, dtype=np.int64),
                            (len(tails), m, m)).copy()
        P[:, m - 1] = -tails % p
        keep = _powers_are_one(P, group_order, p)
        for ell in prime_divs:
            P, tails = P[keep], tails[keep]
            keep = ~_powers_are_one(P, group_order // ell, p)
        if keep.any():
            return tuple(int(c) for c in tails[keep][0]) + (1,)
    raise RuntimeError(f"no primitive polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# master field


class FieldTable:
    """Dense discrete-log tables for GF(p^m).

    Attributes
    ----------
    p, m : characteristic and extension degree over the prime field
    order : p^m
    mult_order : p^m - 1
    modulus : little-endian coefficients of the primitive modulus
    exp : numpy array, exp[k] = base-p packed coefficient vector of xi^k
    log : numpy array indexed by packed value; log[0] = ZERO

    The two tables are int32, since every entry is below the budget
    2^24; what they hand out is widened (``int`` here, int64 in
    ``embeddings``), so products of element values cannot wrap.  No Zech
    table is kept: ``add`` computes the one Zech logarithm it needs from
    ``exp`` and ``log``.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...],
                 exp: np.ndarray, log: np.ndarray):
        self.p = p
        self.m = m
        self.order = p**m
        self.mult_order = self.order - 1
        self.modulus = modulus
        self.exp = exp
        self.log = log
        self.one = 0
        # a Subfield keeps its master alive, not the other way round, so
        # dropping the last reference frees the tables without a GC pass
        self._subfields: weakref.WeakValueDictionary[int, Subfield] = (
            weakref.WeakValueDictionary())
        # dlog of -1: xi^((p^m-1)/2) for odd p, 1 == -1 for p = 2
        self.minus_one = 0 if p == 2 else self.mult_order // 2

    def __repr__(self):
        return f"FieldTable(GF({self.p}^{self.m}))"

    # -- scalar ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        if a > b:
            a, b = b, a
        # xi^a + xi^b = xi^a (1 + xi^(b-a)); adding 1 to the packed vector
        # of xi^(b-a) steps its constant coefficient, from p - 1 round to 0
        e = self.exp.item(b - a) + 1
        if e % self.p == 0:
            e -= self.p
        z = self.log.item(e)
        if z == ZERO:
            return ZERO
        return (a + z) % self.mult_order

    def neg(self, a: int) -> int:
        if a == ZERO or self.p == 2:
            return a
        return (a + self.mult_order // 2) % self.mult_order

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % self.mult_order

    def inv(self, a: int) -> int:
        if a == ZERO:
            raise ZeroDivisionError("inverse of zero field element")
        return (-a) % self.mult_order

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == ZERO:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self.one if e == 0 else ZERO
        return (a * e) % self.mult_order

    # -- structure ----------------------------------------------------------

    def from_prime_scalar(self, c: int) -> int:
        """Embed an integer (mod p) as a field element."""
        c %= self.p
        if c == 0:
            return ZERO
        return int(self.log[c])

    def nth_root_of_unity(self, n: int) -> int:
        if n <= 0 or self.mult_order % n != 0:
            raise ValueError(f"GF({self.p}^{self.m}) has no primitive {n}-th root of unity")
        return (self.mult_order // n) % self.mult_order

    def subfield(self, q: int) -> "Subfield":
        sf = self._subfields.get(q)
        if sf is None:
            sf = Subfield(self, q)
            self._subfields[q] = sf
        return sf


def _build_exp_table(p: int, m: int, modulus: tuple[int, ...]) -> np.ndarray:
    """Packed coefficient vectors of xi^k for k = 0..p^m-2.

    Multiplication by x is a linear map A on coefficient vectors.  The orbit
    of 1 is doubled up to 4096 states, each doubling one product by
    A^(states so far); then whole blocks follow, one product by A^4096 each.
    The blocks, which are the work for a large field, take float64 products,
    so they go to BLAS; they are exact, since every sum is below
    m (p - 1)^2 and every packed value below p^m.
    """
    n = p**m - 1
    # A[j, i]: contribution of old coeff j to new coeff i under v -> x*v
    A = np.eye(m, k=1, dtype=np.int64)
    A[m - 1] = [(-c) % p for c in modulus[:m]]
    states = np.eye(1, m, dtype=np.int64)
    while len(states) < min(n, 4096):
        states = np.vstack([states, states @ A % p])
        A = A @ A % p
    states, A = states.astype(np.float64), A.astype(np.float64)
    weights = float(p) ** np.arange(m)
    exp = np.empty(n, dtype=np.int32)
    for pos in range(0, n, len(states)):
        take = min(len(states), n - pos)
        exp[pos:pos + take] = states[:take] @ weights
        states = states @ A
        # states mod p; float64 % takes about three times as long
        states -= p * np.floor(states / p)
    return exp


_BUILD_BLOCK = 2 ** 16


@lru_cache(maxsize=None)
def build_field(p: int, m: int) -> FieldTable:
    """Construct (and cache) the GF(p^m) tables, refusing a field of more
    than ``DEFAULT_FIELD_BUDGET`` elements."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    order = p**m
    if order > DEFAULT_FIELD_BUDGET:
        raise FieldBudgetError(
            f"GF({p}^{m}) has {order} elements, over the table budget "
            f"{DEFAULT_FIELD_BUDGET}")

    modulus = smallest_primitive_modulus(p, m)
    exp = _build_exp_table(p, m, modulus)

    # block by block, so that beside its two tables a large field's build
    # holds only temporaries of _BUILD_BLOCK entries; Zech logarithms are
    # not tabulated, FieldTable.add and Subfield read them off exp and log
    n, step = order - 1, _BUILD_BLOCK
    log = np.full(order, ZERO, dtype=np.int32)
    for s in range(0, n, step):
        np.put(log, exp[s:s + step],
               np.arange(s, min(s + step, n), dtype=np.int32))
    if sum(np.count_nonzero(log[s:s + step] != ZERO)
           for s in range(0, order, step)) != n:
        raise RuntimeError("exp table is not a full multiplicative orbit")
    return FieldTable(p, m, modulus, exp, log)


# ---------------------------------------------------------------------------
# subfields


MAX_TABLE_ORDER = 4096
_GATHER_BLOCK = 2 ** 14
_COORD_TABLES = ("coord_t", "mulmat_t", "pack_t")
_TABLES = ("add_t", "mul_t", "neg_t", "inv_t") + _COORD_TABLES


class Subfield:
    """The copy of GF(q) inside a master field, with dense index tables.

    Elements get compact indices 0..q-1: index 0 is zero and index i >= 1 is
    gen^(i-1) where gen = xi^step is the canonical subfield generator.
    numpy tables (add_t, mul_t, neg_t, inv_t) operate on these indices, and
    three more give the regular representation over GF(p) in a basis of
    GF(q): coord_t[i] holds the e coordinates of index i, mulmat_t[i] the
    e x e matrix M with coords(x * i) = coords(x) @ M, and pack_t maps the
    base-p number of a coordinate vector (first coordinate least
    significant) back to its index.  The coordinate tables are float64 so
    products of them go straight to BLAS.  The four index tables are built
    on the first access to any of them, the three coordinate tables on the
    first access to any of those, so block fields, which only need
    ``elements`` / ``dlog`` / ``contains``, never pay for them, and an
    alphabet that takes no product never builds coordinates.

    Arrays of indices are added, multiplied, negated and inverted entrywise
    by ``add``, ``mul``, ``neg`` and ``inv``, the one path every table
    lookup outside this module takes.
    """

    def __init__(self, master: FieldTable, q: int):
        p, e = split_prime_power(q)
        if p != master.p or master.m % e != 0:
            raise MissingSubfieldError(
                f"GF({q}) does not embed in GF({master.p}^{master.m})")
        self.master = master
        self.q = q
        self.p = p
        self.degree = e  # over the prime field
        self.step = master.mult_order // (q - 1)
        self.gen = self.step if q > 2 else 0  # gen of GF(2) is 1 itself

    def __repr__(self):
        return f"Subfield(GF({self.q}) of GF({self.p}^{self.master.m}))"

    # -- element/index conversion ------------------------------------------

    def contains(self, a: int) -> bool:
        return a == ZERO or a % self.step == 0

    def index(self, a: int) -> int:
        if a == ZERO:
            return 0
        if a % self.step:
            raise ValueError("element not in subfield")
        return 1 + (a // self.step)

    def element(self, i: int) -> int:
        if i == 0:
            return ZERO
        return (i - 1) * self.step

    def elements(self):
        """All subfield elements as master ints, in index order."""
        yield ZERO
        for k in range(self.q - 1):
            yield k * self.step

    def dlog(self, a: int) -> int | None:
        """Discrete log of a w.r.t. the subfield generator (None for zero)."""
        if a == ZERO:
            return None
        return self.index(a) - 1

    # -- array arithmetic ----------------------------------------------------
    # Each is one ``take`` on the flattened table, which numpy runs several
    # times faster than indexing the table with index arrays.  A pair a, b
    # reads entry a q + b, computed as intp: q^2 overflows int16 from
    # q = 182 on.  The operands broadcast; the results are int16.

    def add(self, A, B) -> np.ndarray:
        """A + B, entrywise, for index arrays A and B."""
        return self._gather_pairs(self.add_t, A, B)

    def mul(self, A, B) -> np.ndarray:
        """A B, entrywise, for index arrays A and B."""
        return self._gather_pairs(self.mul_t, A, B)

    def neg(self, A) -> np.ndarray:
        """-A, entrywise, for an index array A."""
        return self.neg_t.take(A)

    def inv(self, A) -> np.ndarray:
        """A^-1, entrywise, for an index array A of nonzero indices."""
        return self.inv_t.take(A)

    def _gather_pairs(self, table, A, B) -> np.ndarray:
        """The entries table[a, b] of the pairs of A and B.  A broadcast
        that outgrows both operands together and _GATHER_BLOCK entries is
        gathered a block of its first axis at a time, so that its intp
        index, four times the size of the int16 result, stays small."""
        flat = np.multiply(A, self.q, dtype=np.intp)
        if flat.shape == np.shape(B):
            flat += B
            return table.take(flat)
        # the broadcast has at most size(A) size(B) entries
        if flat.size * np.size(B) <= _GATHER_BLOCK:
            return table.take(flat + B)
        both = np.broadcast(flat, B)
        shape, size = both.shape, both.size
        if size <= _GATHER_BLOCK or size <= flat.size + np.size(B):
            return table.take(flat + B)
        flat, B = np.broadcast_to(flat, shape), np.broadcast_to(B, shape)
        out = np.empty(shape, dtype=table.dtype)
        step = max(1, _GATHER_BLOCK * shape[0] // size)
        for s in range(0, shape[0], step):
            out[s:s + step] = table.take(flat[s:s + step] + B[s:s + step])
        return out

    # -- numpy tables --------------------------------------------------------

    def __getattr__(self, name):
        # only reached while a table is missing: build its group of tables
        if name not in _TABLES:
            raise AttributeError(name)
        if name in _COORD_TABLES:
            self._build_coordinate_tables()
        else:
            self._build_tables()
        return getattr(self, name)

    def _build_tables(self):
        """Exponent arithmetic on indices: gen^i gen^j = gen^(i+j), and
        gen^i + gen^j = gen^i (1 + gen^(j-i)) through the Zech logarithms."""
        F, p, q = self.master, self.p, self.q
        if q > MAX_TABLE_ORDER:
            raise FieldBudgetError(f"subfield GF({q}) too large for dense index tables")
        m = q - 1
        e = np.arange(m, dtype=np.int16)  # index 1 + i stands for gen^i
        # zech[d] = log_gen(1 + gen^d): adding 1 to the packed vector of
        # gen^d steps only its constant coefficient; ZERO // step stays -1
        packed = F.exp[::self.step]
        c0 = packed % p
        zech = (F.log[packed - c0 + (c0 + 1) % p] // self.step).astype(np.int16)
        self.mul_t = np.zeros((q, q), dtype=np.int16)
        self.mul_t[1:, 1:] = (e[:, None] + e) % m + 1
        z = zech[(e - e[:, None]) % m]
        self.add_t = np.zeros((q, q), dtype=np.int16)
        self.add_t[0] = self.add_t[:, 0] = np.arange(q)
        body = self.add_t[1:, 1:]
        np.add(e[:, None], z, out=body)
        body %= m
        body += 1
        body[z < 0] = 0
        self.neg_t = self.mul_t[self.index(self.master.minus_one)].copy()
        self.inv_t = np.zeros(q, dtype=np.int16)
        self.inv_t[1:] = (-e) % m + 1

    def _build_coordinate_tables(self):
        """The regular representation over GF(p).

        The master's packed coefficient vectors of the q elements form an
        e-dimensional subspace of GF(p)^m.  Its pivot columns J (where the
        rank grows, left to right) read coordinates off as x -> x[J], in the
        basis whose J-parts are the unit vectors.
        """
        F, p, q = self.master, self.p, self.q
        packed = np.zeros(q, dtype=np.int64)
        packed[1:] = F.exp[::self.step]
        digits = packed[:, None] // p ** np.arange(F.m) % p
        J: list[int] = []
        for c in range(F.m):
            if len(J) == self.degree:
                break
            codes = digits[:, J + [c]] @ p ** np.arange(len(J) + 1)
            if np.count_nonzero(np.bincount(codes)) > p ** len(J):
                J.append(c)
        coords = digits[:, J]
        self.pack_t = np.empty(q, dtype=np.int16)
        self.pack_t[coords @ p ** np.arange(self.degree)] = np.arange(q)
        basis = self.pack_t[p ** np.arange(self.degree)]
        self.coord_t = coords.astype(np.float64)
        # mulmat_t[y, i] = coords(basis[i] * y)
        self.mulmat_t = self.coord_t[self.mul_t[basis]].transpose(1, 0, 2).copy()


# ---------------------------------------------------------------------------
# derived constants


def sqrt_minus_one(sub: Subfield) -> int:
    """The canonical square root of -1 in GF(q), q ≡ 1 (mod 4).

    Of the two roots the one with the smaller master discrete log is chosen.
    """
    if sub.q % 4 != 1:
        raise ValueError(f"-1 is not a square in GF({sub.q})")
    F = sub.master
    k = F.mult_order // 4
    cand = sorted((k, 3 * k))
    for c in cand:
        if F.mul(c, c) == F.minus_one:
            return c
    raise AssertionError("no 4th root of unity found")  # pragma: no cover


def solve_sum_of_squares(sub: Subfield, c: int) -> tuple[int, int]:
    """Deterministic (u, v) in GF(q)^2 with u^2 + v^2 = c.

    Scans u in subfield index order and picks the square root v with the
    smaller index.  Always solvable in a finite field.
    """
    F = sub.master
    for u in sub.elements():
        w = F.sub(c, F.mul(u, u))
        v = _sqrt_in_subfield(sub, w)
        if v is not None:
            return u, v
    raise AssertionError(f"no sum-of-squares decomposition for {c}")  # pragma: no cover


def _sqrt_in_subfield(sub: Subfield, w: int) -> int | None:
    F = sub.master
    if w == ZERO:
        return ZERO
    if sub.p == 2:
        return F.pow(w, sub.q // 2)  # squaring is bijective
    d = sub.dlog(w)
    if d % 2:  # odd dlog: a non-square of GF(q)
        return None
    r = sub.element(1 + d // 2)
    return min(r, F.neg(r))
