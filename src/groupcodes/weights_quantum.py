"""Minimum weights of group codes and the stabilizer codes they induce.

Distances come from information-set enumeration.  A group code is a left
ideal of F[G]: every translation c -> gc fixes it, and G acts regularly on
the n = |G| coordinates.  So for a codeword c of weight d and an
information set I of size k, the sum over g of |supp(gc) & I| is d k, and
some translate of c, also of weight d, has information weight <= d k / n.
Once every word of information weight <= w is enumerated, any word not met
yet, in the code or off a subcode that G also fixes, has

    d >= ceil(n (w + 1) / k)

for any information set.  Only transitivity is used, and the search checks
it.  It stops once the bound meets the best word found: then d is exact.

The exhaustive reference scans one codeword per projective message of a
row-reduced basis: a leading 1 at each position in turn, then every choice
of the trailing digits.  It splits the trailing rows in two.  The low part,
the last l rows with q^l <= EXHAUSTIVE_BATCH, is tabulated once as a table
L of all q^l combinations.  The high part is walked in steps, each giving
a block H of words (the leading row plus a high combination).  Coordinate
j of H[a] + L[b] vanishes exactly when L[b, j] = -H[a, j], so the weights
of a whole step come from one comparison per coordinate, and only the
lightest word is ever added up.  The first lightest word in message order
is the witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dihedral_algebra import HERMITIAN, Decomposition
from .duality import NotSelfOrthogonalError, dual_spec, is_self_orthogonal
from .fields import Subfield
from .ideals_codes import ideal_to_code

DEFAULT_WORK = 2 * 10 ** 8  # codewords one search may enumerate
EXHAUSTIVE_BATCH = 4096    # projective messages per step of the exhaustive scan
EXACT = "exact"
UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class DistanceResult:
    value: int | None
    status: str
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class QuantumRecord:
    length: int
    logical_dim: int
    base_field: int
    distance: DistanceResult     # lightest codeword outside the stabilizer
    floor: DistanceResult        # plain minimum distance of the big code
    self_dual: bool


# ---------------------------------------------------------------------------
# exhaustive reference


def _mixed_radix(start: int, stop: int, digits: int, q: int) -> np.ndarray:
    """Rows start..stop-1 written base q, least significant digit last."""
    nums = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(nums), digits), dtype=np.int64)
    for j in range(digits - 1, -1, -1):
        nums, out[:, j] = np.divmod(nums, q)
    return out


def min_distance_exhaustive(sub: Subfield, G: np.ndarray, *,
                            budget: int = 2 ** 21) -> DistanceResult:
    """Scan one codeword per projective message; small codes only."""
    G = linalg.row_basis(sub, np.asarray(G))
    k, n = G.shape
    q = sub.q
    if k == 0:
        raise ValueError("the zero code has no minimum distance")
    total = (q ** k - 1) // (q - 1)
    if total > budget:
        raise ValueError(f"{total} projective messages exceed budget {budget}")
    best, witness = None, None
    for lead in range(k):
        free = k - 1 - lead
        low = 0
        while low < free and q ** (low + 1) <= EXHAUSTIVE_BATCH:
            low += 1
        high = free - low
        # all q^low combinations of the last `low` rows, first row most
        # significant
        L = np.zeros((1, n), dtype=G.dtype)
        for row in G[k - low:]:
            scaled = sub.mul_t[np.arange(q)[:, None], row[None, :]]
            L = sub.add_t[L[:, None, :], scaled[None, :, :]].reshape(-1, n)
        step = EXHAUSTIVE_BATCH // len(L)
        for start in range(0, q ** high, step):
            stop = min(start + step, q ** high)
            msgs = np.zeros((stop - start, 1 + high), dtype=G.dtype)
            msgs[:, 0] = 1
            msgs[:, 1:] = _mixed_radix(start, stop, high, q)
            H = linalg.matmul(sub, msgs, G[lead:k - low])
            # H[a] + L[b] vanishes at j exactly where L[b, j] = -H[a, j]
            zeros = np.count_nonzero(
                sub.neg_t[H][:, None, :] == L[None, :, :], axis=2)
            i = int(zeros.argmax())
            weight = n - int(zeros.flat[i])
            if best is None or weight < best:
                a, b = divmod(i, len(L))
                best = weight
                witness = tuple(int(x) for x in sub.add_t[H[a], L[b]])
    return DistanceResult(best, EXACT, witness)


# ---------------------------------------------------------------------------
# information-set enumeration


def code_automorphism(dec: Decomposition) -> np.ndarray:
    """Left translations by the generators a and b, one permutation per row.

    The row of g sends coordinate h to the index of g h.  Together the
    rows generate the left-regular action, which fixes every left ideal.
    """
    return dec.mul_table[[dec.group_index(1, 0), dec.group_index(0, 1)]]


def _is_transitive(perms: np.ndarray) -> bool:
    """Whether the permutations (rows) move coordinate 0 to every other."""
    orbit, size = {0}, 0
    while len(orbit) > size:
        size = len(orbit)
        orbit.update(perms[:, list(orbit)].flat)
    return len(orbit) == perms.shape[1]


def _check_invariant(sub: Subfield, R: np.ndarray, pivots: tuple[int, ...],
                     perm: np.ndarray) -> None:
    """The permuted rows of the RREF (R, pivots) stay in its row space."""
    moved = np.empty_like(R)
    moved[:, perm] = R
    if not linalg.in_row_space(sub, R, pivots, moved).all():
        raise AssertionError("permutation does not preserve the code")


class _Search:
    """Shared state of one enumeration run."""

    def __init__(self, sub, G, exclude, automorphism, max_weight=None):
        R, piv = linalg.rref(sub, np.asarray(G))
        if not piv:
            raise ValueError("the zero code has no minimum distance")
        # the pivots are an information set, and Gs is the identity there
        self.sub, self.Gs, self.info = sub, R[:len(piv)], piv
        self.k, self.n = self.Gs.shape
        self.max_weight = max_weight
        self.work = 0

        self.exclude = (None if exclude is None
                        else linalg.rref(sub, np.asarray(exclude)))

        self.orbit_bound = automorphism is not None
        if automorphism is not None:
            perms = np.atleast_2d(automorphism)
            if not _is_transitive(perms):
                raise ValueError("the automorphisms do not act transitively "
                                 "on the coordinates")
            for perm in perms:
                _check_invariant(sub, self.Gs, piv, perm)
                if self.exclude is not None:
                    _check_invariant(sub, *self.exclude, perm)

        self.best_any: int | None = None
        self.best_out: int | None = None
        self.wit_any = self.wit_out = None

    def _bound(self, w_done: int) -> int:
        if not self.orbit_bound:
            return w_done + 1
        # never below w_done + 1, since n >= k
        return -(-self.n * (w_done + 1) // self.k)

    def _take(self, words: np.ndarray, weights: np.ndarray) -> None:
        i = int(weights.argmin())
        if self.best_any is None or weights[i] < self.best_any:
            self.best_any = int(weights[i])
            self.wit_any = tuple(int(x) for x in words[i])
        if self.exclude is None:
            return
        cap = self.best_out if self.best_out is not None else self.n + 1
        cand = np.nonzero(weights < cap)[0]
        if cand.size == 0:
            return
        out = cand[~linalg.in_row_space(self.sub, *self.exclude, words[cand])]
        if out.size:
            j = out[weights[out].argmin()]   # the first lightest
            self.best_out = int(weights[j])
            self.wit_out = tuple(int(x) for x in words[j])

    def _enumerate_weight(self, w: int) -> bool:
        """All codewords of information weight w; False when out of budget."""
        q = self.sub.q
        units = np.arange(1, q, dtype=self.Gs.dtype)
        for support in itertools.combinations(range(self.k), w):
            cost = (q - 1) ** (w - 1)
            if self.work + cost > DEFAULT_WORK:
                return False
            self.work += cost
            words = self.Gs[support[0]][None, :]
            for row in support[1:]:
                scaled = self.sub.mul_t[units[:, None], self.Gs[row][None, :]]
                words = self.sub.add_t[words[:, None, :], scaled[None, :, :]]
                words = words.reshape(-1, self.n)
            self._take(words, np.count_nonzero(words, axis=1))
        return True

    def _done(self, lb: int) -> bool:
        if self.best_any is None or lb < self.best_any:
            return False
        if self.exclude is not None:
            if self.best_out is None or lb < self.best_out:
                return False
        return True

    def run(self) -> tuple[DistanceResult, DistanceResult | None]:
        status = UPPER_BOUND
        w_stop = self.k if self.max_weight is None else min(self.k, self.max_weight)
        for w in range(1, w_stop + 1):
            if not self._enumerate_weight(w):
                break
            if self._done(self._bound(w)):
                status = EXACT
                break
        else:
            if w_stop == self.k:
                status = EXACT   # every information pattern was visited
        floor = self._checked(self.best_any, status, self.wit_any)
        if self.exclude is None:
            return floor, None
        return floor, self._checked(self.best_out, status, self.wit_out,
                                    outside=True)

    def _checked(self, value, status, witness, outside=False):
        """Re-weigh the witness and test that it is a codeword (and, for
        the outside result, that it is not in the excluded subcode)."""
        if witness is not None:
            wit = np.array(witness, dtype=self.Gs.dtype)[None]
            if int(np.count_nonzero(wit)) != value:
                raise AssertionError("distance witness has the wrong weight")
            if not linalg.in_row_space(self.sub, self.Gs, self.info, wit)[0]:
                raise AssertionError("distance witness is not a codeword")
            if outside and linalg.in_row_space(self.sub, *self.exclude, wit)[0]:
                raise AssertionError(
                    "distance witness lies in the excluded subcode")
        return DistanceResult(value, status, witness)


def min_distance_isd(sub: Subfield, G: np.ndarray, *,
                     automorphism: np.ndarray | None = None,
                     max_weight: int | None = None) -> DistanceResult:
    floor, _ = _Search(sub, G, None, automorphism, max_weight).run()
    return floor


def min_distance_isd_excluding(sub: Subfield, G: np.ndarray,
                               exclude: np.ndarray | None, *,
                               automorphism: np.ndarray | None = None,
                               max_weight: int | None = None):
    """(floor, outside): minimum weights in the code and off the subcode.

    With no subcode to exclude, outside is None.
    """
    return _Search(sub, G, exclude, automorphism, max_weight).run()


# ---------------------------------------------------------------------------
# stabilizer construction


def css_hermitian(dec: Decomposition, spec, *,
                  max_weight: int | None = None) -> QuantumRecord:
    """Quantum parameters of a hermitian self-orthogonal ideal spec."""
    if dec.mode != HERMITIAN:
        raise ValueError("stabilizer construction needs a hermitian-mode algebra")
    ok, block = is_self_orthogonal(dec, spec)
    if not ok:
        raise NotSelfOrthogonalError(
            f"ideal is not hermitian self-orthogonal (block {block})")
    small = ideal_to_code(dec, spec)
    big = ideal_to_code(dec, dual_spec(dec, spec))
    n, k = dec.length, small.shape[0]
    self_dual = n == 2 * k
    # nothing lies outside a self-dual subcode: the distance is the floor
    floor, outside = min_distance_isd_excluding(
        dec.alphabet, big, None if self_dual else small,
        automorphism=code_automorphism(dec), max_weight=max_weight)
    return QuantumRecord(n, n - 2 * k, dec.q, outside or floor, floor,
                         self_dual)
