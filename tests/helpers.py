"""Shared test helpers: the session's large alphabets, and small reference
definitions that several tests use and the package itself does not need."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from groupcodes import linalg
from groupcodes.dihedral_algebra import FIELD_SLOT, m2_mul, slot_mul, slot_one
from groupcodes.fields import ZERO, build_field, prime_factors
from groupcodes.polyfactor import poly_mul


@functools.cache
def subfield(p: int, m: int, q: int):
    """GF(q) inside GF(p^m), kept for the whole session.  A master field
    holds its subfields weakly, so without this each example of a property
    test would build the q x q tables of its alphabet again."""
    return build_field(p, m).subfield(q)


def zero_spec(dec) -> tuple:
    return tuple("zero" for _ in dec.slots())


def full_spec(dec) -> tuple:
    return tuple("full" for _ in dec.slots())


def slot_zero(slot):
    return ZERO if slot.kind == FIELD_SLOT else (ZERO,) * slot.ncomp


def random_slot_value(slot, rng):
    """A random value of a slot: each entry uniform in its block field."""
    entries = tuple(slot.field.element(int(i))
                    for i in rng.integers(0, slot.field.q, slot.ncomp))
    return entries[0] if slot.kind == FIELD_SLOT else entries


def slot_pow(slot, x, e: int):
    """x^e in a slot's ring, by repeated squaring."""
    out = slot_one(slot)
    base = x
    while e:
        if e & 1:
            out = slot_mul(slot, out, base)
        base = slot_mul(slot, base, base)
        e >>= 1
    return out


def m2_det(F, x) -> int:
    return F.sub(F.mul(x[0], x[3]), F.mul(x[1], x[2]))


def m2_inv(F, x):
    d = m2_det(F, x)
    if d == ZERO:
        raise ZeroDivisionError("singular 2x2 matrix")
    di = F.inv(d)
    return (F.mul(di, x[3]), F.mul(di, F.neg(x[1])),
            F.mul(di, F.neg(x[2])), F.mul(di, x[0]))


def selfrec_basis_change(F, alpha: int, c: int):
    """z = [[c, -alpha], [c, -alpha^-1]], the change of basis of a
    self-reciprocal slot with root alpha whose b scales the swap by c."""
    return (c, F.neg(alpha), c, F.neg(F.inv(alpha)))


def reference_transport(F, z, x):
    """Conjugation z^(-1) x z: the derivation of a self-reciprocal slot's
    images, which the package writes in closed form."""
    return m2_mul(F, m2_inv(F, z), m2_mul(F, x, z))


def reference_theta_map(F, half, i: int, u: int, v: int, x):
    """Rewrite a matrix [[w, z], [-z^Q, w^Q]] over half(i) as a matrix over
    half: the derivation of a skew quaternion slot's images, which the
    package writes in closed form.

    Q = |half|; (u, v) must satisfy u^2 + v^2 = -1 in the half field.  The map
    is an algebra isomorphism onto M_2(half): it sends the canonical basis
    1, [[0,1],[-1,0]], [[i,0],[0,-i]], [[0,i],[i,0]] of the twisted form to
    1, [[0,1],[-1,0]], [[u,v],[v,-u]], [[-v,u],[u,v]] coordinate-for-coordinate.
    """
    Qh = half.q
    w, z, z2, w2 = x
    if w2 != F.pow(w, Qh) or z2 != F.neg(F.pow(z, Qh)):
        raise ValueError("matrix is not in the twisted form [[w, z], [-z^Q, w^Q]]")
    two = F.from_prime_scalar(2)
    two_i = F.mul(two, i)
    wq, zq = F.pow(w, Qh), F.pow(z, Qh)
    x1 = F.div(F.add(w, wq), two)
    x2 = F.div(F.sub(w, wq), two_i)
    x3 = F.div(F.add(z, zq), two)
    x4 = F.div(F.sub(z, zq), two_i)
    for c in (x1, x2, x3, x4):
        if not half.contains(c):
            raise AssertionError("twisted coordinates fell outside the half field")
    return (F.add(x1, F.sub(F.mul(x2, u), F.mul(x4, v))),
            F.add(x3, F.add(F.mul(x2, v), F.mul(x4, u))),
            F.add(F.neg(x3), F.add(F.mul(x2, v), F.mul(x4, u))),
            F.sub(x1, F.sub(F.mul(x2, u), F.mul(x4, v))))


def rank(sub, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    return len(linalg.rref(sub, A)[1])


def reference_inverse(sub, A: np.ndarray) -> np.ndarray:
    """A^(-1) by Gauss-Jordan elimination of [A | I], the reference for
    the closed-form inverse of a decomposition's block map."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("inverse of non-square matrix")
    aug = np.zeros((n, 2 * n), dtype=A.dtype)
    aug[:, :n] = A
    aug[np.arange(n), n + np.arange(n)] = 1
    R, pivots = linalg.rref(sub, aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def prime_coords(F, a: int) -> tuple[int, ...]:
    """Coefficients of a over the prime-field power basis (length m)."""
    v = 0 if a == ZERO else int(F.exp[a])
    out = []
    for _ in range(F.m):
        out.append(v % F.p)
        v //= F.p
    return tuple(out)


def reciprocal_poly(F, f: tuple[int, ...]) -> tuple[int, ...]:
    """Monic reciprocal f*(x) = f(0)^-1 x^deg(f) f(1/x); needs f(0) != 0."""
    rev = tuple(reversed(f))
    lead = rev[-1]
    if lead == ZERO:
        raise ValueError("reciprocal of a polynomial divisible by x")
    s = F.inv(lead)
    return tuple(F.mul(c, s) for c in rev)


def conjugate_poly(F, f: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Apply x -> x^q to every coefficient."""
    return tuple(F.pow(c, q) if c != ZERO else ZERO for c in f)


def product_of_factors(F, factors) -> tuple[int, ...]:
    poly = (F.one,)
    for f in factors:
        poly = poly_mul(F, poly, f.coeffs)
    return poly


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """a b modulo the monic mod over GF(p), little-endian coefficient
    lists with trailing zeros dropped."""
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, m - 1, -1):
        c, res[i] = res[i], 0
        for j in range(m):
            res[i - m + j] = (res[i - m + j] - c * mod[j]) % p
    res = res[:m]
    while len(res) > 1 and res[-1] == 0:
        res.pop()
    return res


def _x_power_is_one(mod: list[int], e: int, p: int) -> bool:
    """Whether x^e = 1 modulo mod, by right-to-left square-and-multiply."""
    result, acc = [1], [0, 1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod, p)
        acc = _poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result == [1]


def scalar_primitive_modulus(p: int, m: int) -> tuple[int, ...]:
    """The smallest primitive modulus by the definition, one candidate at a
    time in the order (c_{m-1}, ..., c_0): the first f with f(0) != 0 modulo
    which x has order exactly p^m - 1."""
    N = p**m - 1
    exponents = [N // ell for ell in prime_factors(N)]
    for tail in itertools.product(range(p), repeat=m):
        mod = list(reversed(tail)) + [1]   # little-endian
        if (mod[0] and _x_power_is_one(mod, N, p)
                and not any(_x_power_is_one(mod, e, p) for e in exponents)):
            return tuple(mod)
    raise AssertionError(f"no primitive polynomial of degree {m} over GF({p})")
