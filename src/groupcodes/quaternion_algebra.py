"""Block decomposition of generalised quaternion group algebras.

The group of order 4n is <a, b | a^(2n) = 1, b^2 = a^n, b a b^(-1) = a^(-1)>.
Over GF(q) with q = 3 (mod 4) and n odd its group algebra splits along
x^(2n) - 1 = (x^n - 1)(x^n + 1):

* rotation-side factors of x^n - 1 produce exactly the dihedral euclidean
  blocks (b acts there as an order-2 reflection, since a^n is trivial);

* factors of x^n + 1 see b^2 = a^n = -1, so b must square to minus one.
  The unit factor x + 1 gives a single 1x1 slot over GF(q^2) = GF(q)(i) with
  a -> -1, b -> i.  A self-reciprocal factor of degree 2s gives one 2x2 slot
  over GF(q^s): when i lies in GF(q^s) a plain change of basis works; when it
  does not (s odd), the block is first written over GF(q^s)(i) in a twisted
  form and then rewritten over GF(q^s) using a fixed solution of
  u^2 + v^2 = -1.  A reciprocal pair of degree-s factors gives one 2x2 slot
  over GF(q^s) with b -> [[0, -1], [1, 0]].

When q = 1 (mod 4) or n is even the algebra is isomorphic to the dihedral
one of rotation order 2n and the builder refuses with DelegateToDihedral,
pointing at the decomposition that should be used instead.
"""

from __future__ import annotations

import math

from .dihedral_algebra import (Block, Decomposition, PowerBasis, Slot,
                               _assemble, _euclid_blocks, _resolve_root,
                               m2_antidiag, m2_diag, transport, FIELD_SLOT,
                               MAT_SLOT, EUCLIDEAN)
from .fields import (ZERO, FieldTable, Subfield,
                     build_field, mult_order, solve_sum_of_squares,
                     split_prime_power, sqrt_minus_one)
from .polyfactor import (MINUS_ONE, RECIPROCAL_PAIR, SELF_RECIPROCAL,
                         classify_euclidean, factor_x_pow_n_minus_1,
                         factor_x_pow_n_plus_1)

# block kinds of the x^n + 1 side
B_UNIT = "b_unit"                  # x + 1: one 1x1 slot over GF(q^2)
B_SELFREC_SPLIT = "b_selfrec_split"  # self-reciprocal, i in the half field
B_SELFREC_SKEW = "b_selfrec_skew"    # self-reciprocal, i outside the half field
B_PAIR = "b_pair"                  # reciprocal pair

B_SIDE_KINDS = (B_UNIT, B_SELFREC_SPLIT, B_SELFREC_SKEW, B_PAIR)


class DelegateToDihedral(ValueError):
    """The quaternion algebra coincides with a dihedral one; build that instead."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.dihedral_n = 2 * n
        super().__init__(
            f"GF({q})[Q_{n}] is isomorphic to GF({q})[D_{2 * n}] "
            f"(q = 1 mod 4 or even rotation half-order); "
            f"use the dihedral decomposition with n = {2 * n}")


# ---------------------------------------------------------------------------
# the twisted rewriting for self-reciprocal blocks without i


def theta_map(F: FieldTable, half: Subfield, i: int, u: int, v: int, x):
    """Rewrite a matrix [[w, z], [-z^Q, w^Q]] over half(i) as a matrix over half.

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


def _b_unit_block(F: FieldTable, alphabet: Subfield, factor, q: int) -> Block:
    ext = F.subfield(q * q)
    i = sqrt_minus_one(ext)
    slot = Slot(FIELD_SLOT, PowerBasis(ext, alphabet), F.minus_one, i,
                root=F.minus_one)
    return Block(B_UNIT, (slot,), (factor,), {"i": i})


def _b_selfrec_block(F: FieldTable, alphabet: Subfield, cls, q: int,
                     root_choices: dict | None) -> Block:
    beta = _resolve_root(F, (cls.f,), root_choices)
    s = cls.degree // 2
    half = F.subfield(q**s)
    basis = PowerBasis(half, alphabet)
    binv = F.inv(beta)
    t = F.add(beta, binv)
    if not half.contains(t) or half.contains(beta):
        raise AssertionError("self-reciprocal root must be quadratic over the half field")
    i = sqrt_minus_one(F.subfield(q * q))
    if s % 2 == 0:
        # i lies in the half field: direct change of basis
        z = (i, F.neg(beta), i, F.neg(binv))
        gen_a = transport(F, z, m2_diag(beta, binv))
        gen_b = transport(F, z, m2_antidiag(i, i))
        if gen_a != (ZERO, F.neg(i), F.neg(i), t):
            raise AssertionError("unexpected rotation image in split block")
        if gen_b != (i, F.neg(t), ZERO, F.neg(i)):
            raise AssertionError("unexpected b image in split block")
        slot = Slot(MAT_SLOT, basis, gen_a, gen_b, root=beta)
        return Block(B_SELFREC_SPLIT, (slot,), (cls.f,),
                     {"t": t, "i": i, "z": z})
    u, v = solve_sum_of_squares(half, F.minus_one)
    gen_a = theta_map(F, half, i, u, v, m2_diag(beta, binv))
    gen_b = theta_map(F, half, i, u, v, m2_antidiag(i, i))
    two = F.from_prime_scalar(2)
    s_half = F.div(t, two)
    c_half = F.div(F.sub(beta, binv), F.mul(two, i))
    expect_a = (F.add(s_half, F.mul(c_half, u)), F.mul(c_half, v),
                F.mul(c_half, v), F.sub(s_half, F.mul(c_half, u)))
    if gen_a != expect_a or gen_b != (F.neg(v), u, u, v):
        raise AssertionError("unexpected images in skew block")
    slot = Slot(MAT_SLOT, basis, gen_a, gen_b, root=beta)
    return Block(B_SELFREC_SKEW, (slot,), (cls.f,),
                 {"t": t, "i": i, "u": u, "v": v})


def _b_pair_block(F: FieldTable, alphabet: Subfield, cls, q: int,
                  root_choices: dict | None) -> Block:
    family = (cls.f, cls.partner)
    beta = _resolve_root(F, family, root_choices)
    basis = PowerBasis(F.subfield(q**cls.degree), alphabet)
    gen_a = m2_diag(beta, F.inv(beta))
    gen_b = (ZERO, F.minus_one, F.one, ZERO)
    slot = Slot(MAT_SLOT, basis, gen_a, gen_b, root=beta)
    return Block(B_PAIR, (slot,), family)


def build_quaternion_decomposition(n: int, q: int, *,
                                   root_choices: dict | None = None,
                                   master: FieldTable | None = None
                                   ) -> Decomposition:
    """Decompose GF(q)[Q_n] (group order 4n) for q = 3 (mod 4) and odd n."""
    if n < 2:
        raise ValueError("quaternion half-rotation order must be at least 2")
    p, e = split_prime_power(q)
    if p == 2:
        raise ValueError("generalised quaternion group algebras need odd characteristic")
    if q % 4 == 1 or n % 2 == 0:
        raise DelegateToDihedral(n, q)
    if math.gcd(p, n) != 1:
        raise ValueError(f"alphabet characteristic {p} divides the rotation order {n}")
    m = e * math.lcm(mult_order(q, 2 * n), 2)
    if master is not None:
        if master.p != p or master.m % m:
            raise ValueError("supplied master field does not cover the block fields")
        F = master
    else:
        F = build_field(p, m)
    alphabet = F.subfield(q)

    minus_factors = factor_x_pow_n_minus_1(F, q, n)
    blocks = _euclid_blocks(F, alphabet, classify_euclidean(minus_factors),
                            root_choices)

    plus_factors = factor_x_pow_n_plus_1(F, q, n)
    rank = {MINUS_ONE: 0, SELF_RECIPROCAL: 1, RECIPROCAL_PAIR: 2}
    plus_classes = sorted(classify_euclidean(plus_factors),
                          key=lambda c: (rank[c.kind], c.f.coset))
    for cls in plus_classes:
        if cls.kind == MINUS_ONE:
            blocks.append(_b_unit_block(F, alphabet, cls.f, q))
        elif cls.kind == SELF_RECIPROCAL:
            blocks.append(_b_selfrec_block(F, alphabet, cls, q, root_choices))
        elif cls.kind == RECIPROCAL_PAIR:
            blocks.append(_b_pair_block(F, alphabet, cls, q, root_choices))
        else:  # pragma: no cover - x - 1 cannot divide x^n + 1
            raise AssertionError("unexpected unit factor on the x^n + 1 side")

    factors = tuple(minus_factors) + tuple(plus_factors)
    return _assemble("quaternion", n, EUCLIDEAN, q, None, F, alphabet,
                     factors, blocks, 2 * n)
