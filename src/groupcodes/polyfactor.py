"""Irreducible factors of x^n - 1 and x^n + 1, grouped by duality closure.

Factors are built from explicit roots of unity inside the master field: a
primitive n-th (resp. 2n-th) root zeta is fixed, cyclotomic cosets of the
coefficient-field size act on root exponents, and each coset yields one
monic irreducible factor with coefficients in the coefficient field.

Two involutions drive everything downstream:

* reciprocal  f -> f*   (roots r -> 1/r, exponents e -> -e)
* conjugate   f -> fbar (entrywise x -> x^q on coefficients when the
  coefficient field is GF(q^2); root exponents e -> q*e)

Euclidean classification groups factors into {x-1}, {x+1}, self-reciprocal
factors, and reciprocal pairs.  Hermitian classification over GF(q^2)
splits factors of x^n - 1 by which of f*, fbar, (f*)bar coincide with f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import ZERO, FieldTable, Subfield

# ---------------------------------------------------------------------------
# dense polynomial helpers: ascending tuples of master-field ints


def poly_mul(F: FieldTable, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == ZERO:
            continue
        for j, bj in enumerate(b):
            if bj != ZERO:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return tuple(out)


def poly_eval(F: FieldTable, f: tuple[int, ...], x: int) -> int:
    acc = ZERO
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def reciprocal_poly(F: FieldTable, f: tuple[int, ...]) -> tuple[int, ...]:
    """Monic reciprocal f*(x) = f(0)^-1 x^deg(f) f(1/x); needs f(0) != 0."""
    rev = tuple(reversed(f))
    lead = rev[-1]
    if lead == ZERO:
        raise ValueError("reciprocal of a polynomial divisible by x")
    s = F.inv(lead)
    return tuple(F.mul(c, s) for c in rev)


def conjugate_poly(F: FieldTable, f: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Apply x -> x^q to every coefficient."""
    return tuple(F.pow(c, q) if c != ZERO else ZERO for c in f)


# ---------------------------------------------------------------------------
# cosets and factors


def cyclotomic_cosets(mult: int, modulus: int, exponents=None) -> list[tuple[int, ...]]:
    """Orbits of e -> mult*e (mod modulus) on the given exponent set.

    The exponent set must be closed under the map (the default, all
    residues, always is).  Orbits are sorted internally and listed by their
    smallest member.
    """
    if exponents is None:
        exponents = range(modulus)
    seen: set[int] = set()
    out = []
    for e in sorted(exponents):
        if e in seen:
            continue
        orbit = []
        x = e
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = x * mult % modulus
        out.append(tuple(sorted(orbit)))
    return out


@dataclass(frozen=True)
class Factor:
    """One monic irreducible factor, described by its root exponents.

    coset    : sorted exponents e with zeta^e a root (mod ``modulus``)
    modulus  : n for x^n - 1, 2n for x^n + 1
    coeffs   : monic, ascending, master-field ints
    root     : canonical root zeta^min(coset), a master-field int
    """

    coset: tuple[int, ...]
    modulus: int
    coeffs: tuple[int, ...]
    root: int

    @property
    def degree(self) -> int:
        return len(self.coset)

    def recip_coset(self) -> tuple[int, ...]:
        return tuple(sorted((-e) % self.modulus for e in self.coset))

    def conj_coset(self, q: int) -> tuple[int, ...]:
        return tuple(sorted(q * e % self.modulus for e in self.coset))


def _factors_from_cosets(F: FieldTable, sub: Subfield, zeta: int, modulus: int,
                         exponents) -> list[Factor]:
    out = []
    for cs in cyclotomic_cosets(sub.q, modulus, exponents):
        poly = (F.one,)
        for e in cs:
            root = F.pow(zeta, e)
            poly = poly_mul(F, poly, (F.neg(root), F.one))
        if not all(c == ZERO or sub.contains(c) for c in poly):
            raise AssertionError(
                f"factor coefficients escaped GF({sub.q}); master field too small?")
        out.append(Factor(coset=cs, modulus=modulus, coeffs=poly,
                          root=F.pow(zeta, min(cs))))
    return sorted(out, key=lambda f: f.coset)


def factor_x_pow_n_minus_1(F: FieldTable, Q: int, n: int) -> list[Factor]:
    """Irreducible factors of x^n - 1 over GF(Q), inside the master field F."""
    sub = F.subfield(Q)
    if math.gcd(sub.p, n) != 1:
        raise ValueError(f"x^{n} - 1 is not squarefree in characteristic {sub.p}")
    zeta = F.nth_root_of_unity(n)
    return _factors_from_cosets(F, sub, zeta, n, range(n))


def factor_x_pow_n_plus_1(F: FieldTable, q: int, n: int) -> list[Factor]:
    """Irreducible factors of x^n + 1 over GF(q) (q odd), inside F.

    Roots are the odd powers of a primitive 2n-th root of unity.
    """
    sub = F.subfield(q)
    if sub.p == 2:
        raise ValueError("x^n + 1 = x^n - 1 in characteristic 2; use the minus form")
    if math.gcd(sub.p, 2 * n) != 1:
        raise ValueError(f"x^{n} + 1 is not squarefree in characteristic {sub.p}")
    zeta = F.nth_root_of_unity(2 * n)
    return _factors_from_cosets(F, sub, zeta, 2 * n, range(1, 2 * n, 2))


# ---------------------------------------------------------------------------
# euclidean classification (also used for the x^n + 1 side)

ONE = "one"                       # the factor x - 1
MINUS_ONE = "minus_one"           # the factor x + 1
SELF_RECIPROCAL = "self_reciprocal"
RECIPROCAL_PAIR = "reciprocal_pair"


@dataclass(frozen=True)
class EuclidClass:
    kind: str
    f: Factor
    partner: Factor | None = None  # the reciprocal mate for RECIPROCAL_PAIR

    @property
    def degree(self) -> int:
        return self.f.degree


def classify_euclidean(factors: list[Factor]) -> list[EuclidClass]:
    by_coset = {f.coset: f for f in factors}
    used: set[tuple[int, ...]] = set()
    out = []
    for f in factors:
        if f.coset in used:
            continue
        used.add(f.coset)
        m = f.modulus
        if f.coset == (0,):
            out.append(EuclidClass(ONE, f))
        elif m % 2 == 0 and f.coset == (m // 2,):
            out.append(EuclidClass(MINUS_ONE, f))
        elif f.recip_coset() == f.coset:
            if f.degree % 2:
                raise AssertionError("nontrivial self-reciprocal factor of odd degree")
            out.append(EuclidClass(SELF_RECIPROCAL, f))
        else:
            mate = by_coset[f.recip_coset()]
            used.add(mate.coset)
            out.append(EuclidClass(RECIPROCAL_PAIR, f, partner=mate))
    return out


# ---------------------------------------------------------------------------
# hermitian classification over GF(q^2)

BOTH_FIXED = "both_fixed"    # f = f* = fbar          (only x -+ 1)
RECIP_FIXED = "recip_fixed"  # f = f* != fbar         class {f, fbar}
CONJ_FIXED = "conj_fixed"    # f = fbar != f*         class {f, f*}, odd degree
CROSS_FIXED = "cross_fixed"  # f* = fbar != f         class {f, f*}
FREE = "free"                # all four distinct      class {f, f*, fbar, (f*)bar}


@dataclass(frozen=True)
class HermitianClass:
    kind: str
    f: Factor                    # representative: smallest coset in the class
    members: tuple[Factor, ...]

    @property
    def degree(self) -> int:
        return self.f.degree


def classify_hermitian(factors: list[Factor], q: int) -> list[HermitianClass]:
    """Group factors of x^n - 1 over GF(q^2) by their duality closure.

    ``q`` is the square root of the coefficient-field size; conjugation is
    x -> x^q.
    """
    by_coset = {f.coset: f for f in factors}
    used: set[tuple[int, ...]] = set()
    out = []
    for f in factors:
        if f.coset in used:
            continue
        c = f.coset
        crec = f.recip_coset()
        cbar = f.conj_coset(q)
        ccross = tuple(sorted((-q * e) % f.modulus for e in c))
        if crec == c and cbar == c:
            kind, members = BOTH_FIXED, (f,)
            if f.degree != 1:
                raise AssertionError("factor fixed by both involutions must be linear")
        elif crec == c:
            kind, members = RECIP_FIXED, (f, by_coset[cbar])
            if f.degree % 2:
                raise AssertionError("self-reciprocal factor of odd degree")
        elif cbar == c:
            kind, members = CONJ_FIXED, (f, by_coset[crec])
            if f.degree % 2 == 0:
                raise AssertionError("conjugation-fixed non-reciprocal factor of even degree")
        elif ccross == c:
            kind, members = CROSS_FIXED, (f, by_coset[crec])
        else:
            kind, members = FREE, (f, by_coset[crec], by_coset[cbar], by_coset[ccross])
        for g in members:
            used.add(g.coset)
        out.append(HermitianClass(kind, f, members))
    return out


def product_of_factors(F: FieldTable, factors: list[Factor]) -> tuple[int, ...]:
    poly = (F.one,)
    for f in factors:
        poly = poly_mul(F, poly, f.coeffs)
    return poly
