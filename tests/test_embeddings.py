"""Power-basis coordinate maps between nested subfields."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.embeddings import PowerBasis
from groupcodes.fields import ZERO, Subfield, build_field


@pytest.mark.parametrize("p,m,blk,alpha", [
    (3, 4, 81, 9),    # GF(81) over GF(9)
    (3, 4, 9, 9),     # trivial pair
    (2, 6, 64, 4),    # GF(64) over GF(4)
    (11, 6, 1331, 11),
    (5, 2, 25, 25),
])
def test_round_trip_and_linearity(p, m, blk, alpha):
    F = build_field(p, m)
    basis = PowerBasis(F.subfield(blk), F.subfield(alpha))
    assert basis.alphabet.q**basis.d == blk
    xs = np.array(list(basis.block.elements()))
    coords = basis.flatten(xs)
    assert coords.shape == (blk, basis.d)
    assert np.array_equal(basis.unflatten(coords), xs)
    assert len({tuple(c) for c in coords.tolist()}) == blk
    # flatten is additive
    a, b = int(xs[1 % len(xs)]), int(xs[len(xs) // 2])
    summed = basis.flatten(F.add(a, b))
    parts = basis.alphabet.add_t[basis.flatten(a), basis.flatten(b)]
    assert np.array_equal(parts, summed)


def test_flatten_is_alphabet_linear():
    F = build_field(3, 4)
    basis = PowerBasis(F.subfield(81), F.subfield(9))
    lam = F.subfield(9).element(3)
    xs = list(F.subfield(81).elements())[:20]
    lhs = basis.flatten([F.mul(lam, x) for x in xs])
    rhs = basis.alphabet.mul_t[basis.alphabet.index(lam), basis.flatten(xs)]
    assert np.array_equal(lhs, rhs)


def test_zero_flattens_to_zero():
    F = build_field(2, 6)
    basis = PowerBasis(F.subfield(64), F.subfield(4))
    assert basis.flatten(ZERO).tolist() == [0, 0, 0]
    assert basis.unflatten([0, 0, 0]) == ZERO


def test_mismatched_pair_rejected():
    F = build_field(3, 4)
    with pytest.raises(ValueError):
        PowerBasis(F.subfield(3), F.subfield(9))


def test_basis_that_does_not_span_is_caught():
    F = build_field(3, 4)
    block = Subfield(F, 81)
    block.gen = F.subfield(9).gen  # 1 and tau are then dependent over GF(9)
    with pytest.raises(AssertionError, match="span"):
        PowerBasis(block, F.subfield(9)).from_digits


# (p, m, block, alphabet); the last two block fields are above 2^16
_PAIRS = [(3, 4, 81, 9), (2, 6, 64, 4), (11, 6, 1331, 11), (5, 2, 25, 25),
          (3, 8, 6561, 9), (2, 18, 2**18, 4), (2, 20, 2**20, 16)]


def _scalar_unflatten(basis, coords):
    """x = sum_j c_j tau^j with one field operation at a time."""
    F = basis.block.master
    x = ZERO
    for j, c in enumerate(coords):
        tau_j = F.pow(basis.block.gen, j)
        x = F.add(x, F.mul(basis.alphabet.element(int(c)), tau_j))
    return x


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_flatten_matches_scalar_definition(pair, seed):
    p, m, blk, alpha = pair
    F = build_field(p, m)
    basis = PowerBasis(F.subfield(blk), F.subfield(alpha))
    A, K = basis.alphabet, basis.block
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, A.q, (4, basis.d))
    coords[0] = 0
    xs = [_scalar_unflatten(basis, c) for c in coords]
    assert xs[0] == ZERO
    assert basis.unflatten(coords).tolist() == xs
    assert np.array_equal(basis.flatten(xs), coords)
    # random block elements go round the scalar definition
    ys = [K.element(int(i)) for i in rng.integers(0, K.q, 4)]
    assert [_scalar_unflatten(basis, c) for c in basis.flatten(ys)] == ys
    # additivity and GF(Q)-linearity
    lam = A.element(int(rng.integers(1, A.q)))
    flat = basis.flatten(ys)
    assert np.array_equal(basis.flatten(F.add(ys[0], ys[1])),
                          A.add_t[flat[0], flat[1]])
    assert np.array_equal(basis.flatten([F.mul(lam, y) for y in ys]),
                          A.mul_t[A.index(lam), flat])
