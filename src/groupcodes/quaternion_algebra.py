"""Block decomposition of generalised quaternion group algebras.

The group of order 4n is <a, b | a^(2n) = 1, b^2 = a^n, b a b^(-1) = a^(-1)>.
Over GF(q) with q = 3 (mod 4) and n odd its group algebra splits along
x^(2n) - 1 = (x^n - 1)(x^n + 1):

* rotation-side factors of x^n - 1 produce exactly the dihedral euclidean
  blocks, built by ``dihedral_algebra._blocks`` (b acts there as an
  order-2 reflection, since a^n is trivial);

* factors of x^n + 1 see b^2 = a^n = -1, so b must square to minus one.
  The unit factor x + 1 gives a single 1x1 slot over GF(q^2) = GF(q)(i) with
  a -> -1, b -> i.  A self-reciprocal factor of degree 2s gives one 2x2 slot
  over GF(q^s): when i lies in GF(q^s) (s even) it is the dihedral slot
  recipe with b's antidiagonal scaled by i; when it does not (s odd), the
  block is the twisted form over GF(q^s)(i), a -> diag(beta, beta^-1) and
  b -> [[0, i], [i, 0]], rewritten over GF(q^s) with a fixed solution of
  u^2 + v^2 = -1.  The builder writes the rewritten images in closed form,
  a -> (s_h + c_h u, c_h v, c_h v, s_h - c_h u) and b -> (-v, u, u, v)
  row-major, with s_h = (beta + beta^-1) / 2 and c_h = (beta - beta^-1) /
  (2i); the rewriting itself is the tests' reference (``tests/helpers.py``).
  A reciprocal pair of degree-s factors gives the dihedral pair slot over
  GF(q^s) with b -> [[0, -1], [1, 0]].

The factor families of both sides arrive from ``classify_euclidean`` in
block order.  When q = 1 (mod 4) or n is even the algebra is isomorphic to
the dihedral one of rotation order 2n, and the builder refuses with a
ValueError naming the decomposition that should be used instead.
"""

from __future__ import annotations

import math

from .dihedral_algebra import (Block, Decomposition, Slot, _assemble,
                               _blocks, _check_alphabet, _check_maps,
                               _pair_slot, _power_bases, _selfrec_slot,
                               FIELD_SLOT, MAT_SLOT, EUCLIDEAN)
from .fields import (FieldTable, build_field, mult_order,
                     solve_sum_of_squares, split_prime_power, sqrt_minus_one)
from .polyfactor import (MINUS_ONE, SELF_RECIPROCAL, classify_euclidean,
                         factor_x_pow_n_minus_1, factor_x_pow_n_plus_1)

# block kinds of the x^n + 1 side
B_UNIT = "b_unit"                  # x + 1: one 1x1 slot over GF(q^2)
B_SELFREC_SPLIT = "b_selfrec_split"  # self-reciprocal, i in the half field
B_SELFREC_SKEW = "b_selfrec_skew"    # self-reciprocal, i outside the half field
B_PAIR = "b_pair"                  # reciprocal pair

B_SIDE_KINDS = (B_UNIT, B_SELFREC_SPLIT, B_SELFREC_SKEW, B_PAIR)


def _b_unit_block(F: FieldTable, basis, factor) -> Block:
    i = sqrt_minus_one(basis(2).block)
    slot = Slot(FIELD_SLOT, basis(2), F.minus_one, i, root=F.minus_one)
    return Block(B_UNIT, (slot,), (factor,))


def _b_selfrec_block(F: FieldTable, basis, cls) -> Block:
    beta = cls.f.root
    s = cls.degree // 2
    i = sqrt_minus_one(basis(2).block)
    if s % 2 == 0:
        # i lies in the half field: the dihedral recipe with b -> i * swap
        slot = _selfrec_slot(F, basis(s), beta, i)
        return Block(B_SELFREC_SPLIT, (slot,), cls.members)
    # the twisted form rewritten over the half field (module docstring)
    binv = F.inv(beta)
    t = F.add(beta, binv)
    u, v = solve_sum_of_squares(basis(s).block, F.minus_one)
    two = F.from_prime_scalar(2)
    s_h = F.div(t, two)
    c_h = F.div(F.sub(beta, binv), F.mul(two, i))
    gen_a = (F.add(s_h, F.mul(c_h, u)), F.mul(c_h, v),
             F.mul(c_h, v), F.sub(s_h, F.mul(c_h, u)))
    slot = Slot(MAT_SLOT, basis(s), gen_a, (F.neg(v), u, u, v), root=beta)
    return Block(B_SELFREC_SKEW, (slot,), cls.members)


def build_quaternion_decomposition(n: int, q: int) -> Decomposition:
    """Decompose GF(q)[Q_n] (group order 4n) for q = 3 (mod 4) and odd n."""
    if n < 2:
        raise ValueError("quaternion half-rotation order must be at least 2")
    p, e = split_prime_power(q)
    if p == 2:
        raise ValueError("generalised quaternion group algebras need odd characteristic")
    if q % 4 == 1 or n % 2 == 0:
        raise ValueError(
            f"GF({q})[Q_{n}] is isomorphic to GF({q})[D_{2 * n}] "
            f"(q = 1 mod 4 or even rotation half-order); "
            f"use the dihedral decomposition with n = {2 * n}")
    if math.gcd(p, n) != 1:
        raise ValueError(f"alphabet characteristic {p} divides the rotation order {n}")
    _check_alphabet(q)
    _check_maps(4 * n, e)
    F = build_field(p, e * math.lcm(mult_order(q, 2 * n), 2))
    alphabet = F.subfield(q)
    basis = _power_bases(alphabet)

    blocks = _blocks(F, basis,
                     classify_euclidean(factor_x_pow_n_minus_1(F, q, n)),
                     None, None)
    for cls in classify_euclidean(factor_x_pow_n_plus_1(F, q, n)):
        if cls.kind == MINUS_ONE:
            blocks.append(_b_unit_block(F, basis, cls.f))
        elif cls.kind == SELF_RECIPROCAL:
            blocks.append(_b_selfrec_block(F, basis, cls))
        else:  # x - 1 cannot divide x^n + 1: the rest are reciprocal pairs
            slot = _pair_slot(F, basis(cls.degree), cls.f.root, F.minus_one)
            blocks.append(Block(B_PAIR, (slot,), cls.members))
    return _assemble("quaternion", n, EUCLIDEAN, None, alphabet, blocks, 2 * n)
