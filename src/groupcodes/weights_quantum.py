"""Minimum weights of group codes and the stabilizer codes they induce.

Distances come from information-set enumeration.  Group codes are closed
under translation by the rotation generator, whose permutation action on
coordinates splits into two long cycles; enumerating all codewords whose
information-set restriction has weight <= w then yields the lower bound

    d >= max(w + 1, ceil(L (w + 1) / mu))

where L is the permutation order and mu the largest weighted overlap of
the information set with a single cycle.  The search stops once the bound
meets the best codeword found, which certifies exactness.

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
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, oracle
from .dihedral_algebra import HERMITIAN, Decomposition
from .duality import NotSelfOrthogonalError, dual_spec, is_self_orthogonal
from .fields import Subfield
from .ideals_codes import ideal_to_code

DEFAULT_WORK = 2 * 10 ** 8
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
    """Coordinate permutation from left translation by the rotation."""
    return oracle.left_translation(dec.mul_table, dec.group_index(1, 0))


def _permutation_cycles(perm: np.ndarray) -> list[list[int]]:
    seen = np.zeros(len(perm), dtype=bool)
    cycles = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc, x = [], s
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = int(perm[x])
        cycles.append(cyc)
    return cycles


def _check_invariant(sub: Subfield, R: np.ndarray, pivots: tuple[int, ...],
                     perm: np.ndarray) -> None:
    """The permuted rows of the RREF (R, pivots) stay in its row space."""
    moved = np.empty_like(R)
    moved[:, perm] = R
    if not all(linalg.in_row_space(sub, R, pivots, m) for m in moved):
        raise AssertionError("permutation does not preserve the code")


class _Search:
    """Shared state of one enumeration run."""

    def __init__(self, sub, G, exclude, automorphism, max_work,
                 max_weight=None):
        R, piv = linalg.rref(sub, np.asarray(G))
        G = R[:len(piv)]
        if not piv:
            raise ValueError("the zero code has no minimum distance")
        self.sub, self.G = sub, G
        self.k, self.n = G.shape
        self.max_work = max_work
        self.max_weight = max_weight
        self.work = 0

        self.exclude = None
        if exclude is not None:
            self.exclude = linalg.rref(sub, np.asarray(exclude))

        self.cycles = None
        if automorphism is not None:
            perm = np.asarray(automorphism)
            _check_invariant(sub, G, piv, perm)
            if self.exclude is not None:
                _check_invariant(sub, *self.exclude, perm)
            self.cycles = _permutation_cycles(perm)
            order = [c for cs in itertools.zip_longest(*self.cycles)
                     for c in cs if c is not None]
        else:
            order = list(range(self.n))

        # the pivots of the RREF in `order` are the first independent
        # columns in that order; scattered back, R is the identity there
        R, piv = linalg.rref(sub, G[:, order])
        info = [order[c] for c in piv]
        self.Gs = np.empty_like(G)
        self.Gs[:, order] = R
        self.info = info

        if self.cycles is not None:
            self.L = math.lcm(*(len(c) for c in self.cycles))
            self.mu = max((self.L // len(c)) * len(set(info) & set(c))
                          for c in self.cycles)

        self.best_any: int | None = None
        self.best_out: int | None = None
        self.wit_any = self.wit_out = None

    def _bound(self, w_done: int) -> int:
        lb = w_done + 1
        if self.cycles is not None and self.mu:
            lb = max(lb, -(-self.L * (w_done + 1) // self.mu))
        return lb

    def _take(self, words: np.ndarray, weights: np.ndarray) -> None:
        i = int(weights.argmin())
        if self.best_any is None or weights[i] < self.best_any:
            self.best_any = int(weights[i])
            self.wit_any = tuple(int(x) for x in words[i])
        if self.exclude is None:
            return
        R, piv = self.exclude
        cap = self.best_out
        for j in np.nonzero(weights < (cap if cap is not None else self.n + 1))[0]:
            if cap is not None and weights[j] >= cap:
                continue
            if not linalg.in_row_space(self.sub, R, piv, words[j]):
                cap = int(weights[j])
                self.best_out = cap
                self.wit_out = tuple(int(x) for x in words[j])

    def _enumerate_weight(self, w: int) -> bool:
        """All codewords of information weight w; False when out of budget."""
        q = self.sub.q
        units = np.arange(1, q, dtype=self.Gs.dtype)
        for support in itertools.combinations(range(self.k), w):
            cost = (q - 1) ** (w - 1)
            if self.work + cost > self.max_work:
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
        floor = DistanceResult(self.best_any, status, self.wit_any)
        if self.exclude is None:
            return floor, None
        outside = DistanceResult(self.best_out, status, self.wit_out)
        return floor, outside


def min_distance_isd(sub: Subfield, G: np.ndarray, *,
                     automorphism: np.ndarray | None = None,
                     max_work: int = DEFAULT_WORK,
                     max_weight: int | None = None) -> DistanceResult:
    floor, _ = _Search(sub, G, None, automorphism, max_work, max_weight).run()
    return floor


def min_distance_isd_excluding(sub: Subfield, G: np.ndarray,
                               exclude: np.ndarray, *,
                               automorphism: np.ndarray | None = None,
                               max_work: int = DEFAULT_WORK,
                               max_weight: int | None = None):
    """(floor, outside): minimum weights in the code and off the subcode."""
    search = _Search(sub, G, exclude, automorphism, max_work, max_weight)
    return search.run()


# ---------------------------------------------------------------------------
# stabilizer construction


def css_hermitian(dec: Decomposition, spec, *,
                  max_work: int = DEFAULT_WORK,
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
    pi = code_automorphism(dec)
    if k == 0 or n == 2 * k:
        # no subcode to exclude (k = 0), or nothing outside it (self-dual)
        floor = min_distance_isd(dec.alphabet, big, automorphism=pi,
                                 max_work=max_work, max_weight=max_weight)
        outside = floor
    else:
        floor, outside = min_distance_isd_excluding(
            dec.alphabet, big, small, automorphism=pi, max_work=max_work,
            max_weight=max_weight)
    _check_witness(dec.alphabet, big, outside)
    return QuantumRecord(n, n - 2 * k, dec.q, outside, floor, n == 2 * k)


def _check_witness(sub: Subfield, rows: np.ndarray,
                   result: DistanceResult) -> None:
    """Re-weigh the witness and test its membership in the row space."""
    if result.value is None or result.witness is None:
        return
    wit = np.array(result.witness, dtype=np.int32)
    if int(np.count_nonzero(wit)) != result.value:
        raise AssertionError("distance witness has the wrong weight")
    if not linalg.row_space_contains(sub, rows, wit[None, :]):
        raise AssertionError("distance witness is not a codeword")
