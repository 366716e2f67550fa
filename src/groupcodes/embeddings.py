"""Power-basis coordinates of a block field over the code alphabet.

Every 1x1 or 2x2 block of a decomposed group algebra takes its entries in an
extension field K = GF(Q^d) of the alphabet GF(Q), with both fields living
inside one master table.  Code coordinates are alphabet elements, so block
entries have to be flattened to their coordinate vectors over the power basis
1, tau, ..., tau^(d-1), where tau is the canonical generator of K.  The maps
here are dense dictionaries over all of K; building them also proves that the
basis really spans (every element is hit exactly once).
"""

from __future__ import annotations

import itertools

from .fields import ZERO, FieldBudgetError, Subfield

# largest block field we are willing to tabulate coordinate vectors for
MAX_FLATTEN_ORDER = 2**16


class PowerBasis:
    """Coordinate maps between GF(Q^d) and GF(Q)^d inside one master field."""

    def __init__(self, block: Subfield, alphabet: Subfield):
        if block.master is not alphabet.master:
            raise ValueError("block field and alphabet use different master tables")
        if block.degree % alphabet.degree:
            raise ValueError(f"GF({block.q}) is not an extension of GF({alphabet.q})")
        self.block = block
        self.alphabet = alphabet
        self.d = block.degree // alphabet.degree
        if alphabet.q**self.d != block.q:
            raise ValueError("inconsistent subfield pair")
        if block.q > MAX_FLATTEN_ORDER:
            raise FieldBudgetError(
                f"block field GF({block.q}) too large for dense coordinate tables")
        F = block.master
        tau = block.gen
        self.basis = tuple(F.pow(tau, j) for j in range(self.d))
        coords_of: dict[int, tuple[int, ...]] = {}
        for coords in itertools.product(range(alphabet.q), repeat=self.d):
            x = ZERO
            for c, b in zip(coords, self.basis):
                x = F.add(x, F.mul(alphabet.element(c), b))
            coords_of[x] = coords
        if len(coords_of) != block.q:
            raise AssertionError("power basis does not span the block field")
        self._coords_of = coords_of

    def __repr__(self):
        return f"PowerBasis(GF({self.block.q}) / GF({self.alphabet.q}))"

    def flatten(self, x: int) -> tuple[int, ...]:
        """Alphabet indices of a block-field element (length d)."""
        return self._coords_of[x]

    def unflatten(self, coords) -> int:
        """Block-field element with the given alphabet-index coordinates."""
        F = self.block.master
        x = ZERO
        for c, b in zip(coords, self.basis):
            x = F.add(x, F.mul(self.alphabet.element(int(c)), b))
        return x

