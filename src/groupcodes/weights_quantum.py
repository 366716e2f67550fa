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

The searches take one code or a stack of them, the stacked RREF that
``ideal_to_code`` returns for a ``SpecBatch``, and guard a stack once: the
automorphism's transitivity and the invariance of every code and excluded
subcode before the searches, the weight, membership and exclusion of every
witness after them, each membership check one stacked test per dimension.

Both scans weigh words by comparison: coordinate j of H + L vanishes
exactly when L[j] = -H[j], so the weights of all sums H[a] + L[b] of two
blocks of words are counts of matches between the rows of -H and of L, and
only a word that may be the lightest is ever added up.  One kernel counts
them (`_zero_counts`), on rows packed by `_pack`: each coordinate is a
lane, one byte while q <= 256 and two above (the alphabet stops at 4096),
and a row is whole uint64 words.  The XOR of two rows' words has a zero
lane where they match; the zero lanes become True bytes, whose set bits
`np.bitwise_count` counts a word at a time.  A scan packs its fixed
operand once, the enumeration its negated row multiples per search and the
exhaustive scan its low table per leading row, and packs only the moving
block at each step.  Zero columns, which add no weight, pad the compared
coordinates to a multiple of 8, so a weight is the padded length less the
zeros.  Witnesses, membership tests and the orbit bound keep the true
length n.  A step of either scan weighs about BATCH = 16,384 words.

The enumeration keeps its code in one column layout: the n - k columns
off the pivots first, zero-padded to wr, then the k pivot columns, where
the basis is the identity.  A word of information weight w is its w unit
coefficients on the pivots, so it weighs w plus the nonzeros of its wr
redundancy coordinates, and only those are compared.  The words of
information weight 1 are the basis rows themselves, each weighing its
nonzeros.  Above it the enumeration walks heads: a weight-w support is a
head, its first w - 1 rows, and a tail, its last row, and its prefixes
(the leading row, then unit multiples of the rows up to the last) depend
only on the head.  The heads are the (w - 1)-subsets of the rows but the
last, drawn from one combinations stream in blocks whose prefix table
holds about BATCH rows of 8 lanes; a block builds and packs its prefixes
once.  Its supports, each head followed by every later row as tail, are
laid out by index arithmetic in combinations order, in chunks of about
BATCH words; a chunk gathers its heads' packed prefixes and its tails'
negated unit multiples and compares them in one kernel call.  Only a
word kept for `_take` is put together at full width, its pivot
coordinates being its coefficients, and moved back to the natural column
order.  Words come in support order, then unit tuples with the first
scalar most significant; the first lightest word is the witness.

The exhaustive reference scans one codeword per projective message of a
row-reduced basis: a leading 1 at each position in turn, then every choice
of the trailing digits.  It splits the trailing rows in two.  The low part,
the last l rows with q^l <= BATCH, is tabulated once as a table L of all
q^l combinations.  The high part is walked in steps, each giving a block H
of words (the leading row plus a high combination), weighed against L by
comparison over every column of the code, padded to a multiple of 8.  It
takes nothing from an information set on purpose: it is the independent
reference the enumeration is tested against.  The first lightest word in
message order is the witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dihedral_algebra import HERMITIAN, Decomposition
from .duality import (
    NotSelfOrthogonalError,
    codes_with_duals,
    is_self_orthogonal,
)
from .fields import Subfield
from .ideals_codes import SpecBatch

DEFAULT_WORK = 2 * 10 ** 8  # codewords one search may enumerate
BATCH = 16384              # words weighed per step of either scan
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


def _padded(n: int) -> int:
    """The least multiple of 8 that is at least n."""
    return -(-n // 8) * 8


def _pad_columns(G: np.ndarray) -> np.ndarray:
    """G with zero columns up to a multiple of 8, which add no weight."""
    out = np.zeros((len(G), _padded(G.shape[1])), dtype=G.dtype)
    out[:, :G.shape[1]] = G
    return out


def _pack(X: np.ndarray, q: int) -> np.ndarray:
    """Rows of alphabet indices as the lanes `_zero_counts` compares:
    uint8 while q <= 256, uint16 above, with zero lanes up to a multiple
    of 8, so that a row is whole uint64 words."""
    n = X.shape[-1]
    out = np.zeros((*X.shape[:-1], _padded(n)),
                   dtype=np.uint8 if q <= 256 else np.uint16)
    out[..., :n] = X
    return out


def _zero_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """zeros[..., i, j]: lanes where a[..., i, :] == b[..., j, :], for
    rows packed by `_pack`.

    With a = -H and b = L, that is the number of zeros of H[i] + L[j].
    Lanes are equal where the XOR of their words has a zero lane.  The
    words are taken one position at a time, each XOR broadcast over every
    pair of rows; the zero lanes become True bytes, one count word per
    lane word (uint64 for uint8 lanes, uint32 for uint16), whose set bits
    `np.bitwise_count` counts.  The count is int16, which holds any
    length below 2^15.
    """
    A = a.view(np.uint64)[..., :, None, :]
    B = b.view(np.uint64)[..., None, :, :]
    if not A.shape[-1]:   # no lanes: nothing matches
        return np.zeros(np.broadcast_shapes(A.shape, B.shape)[:-1],
                        dtype=np.int16)
    count = np.uint64 if a.itemsize == 1 else np.uint32
    for j in range(A.shape[-1]):
        x = np.bitwise_xor(A[..., j], B[..., j], order="C")
        c = np.bitwise_count(np.equal(x.view(a.dtype), 0).view(count))
        if j:
            zeros += c
        else:
            zeros = c.astype(np.int16)
    return zeros


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
    G = _pad_columns(G)
    width = G.shape[1]
    best, witness = None, None
    for lead in range(k):
        free = k - 1 - lead
        low = 0
        while low < free and q ** (low + 1) <= BATCH:
            low += 1
        high = free - low
        # all q^low combinations of the last `low` rows, first row most
        # significant
        L = np.zeros((1, width), dtype=G.dtype)
        for row in G[k - low:]:
            scaled = sub.mul(np.arange(q)[:, None], row[None, :])
            L = sub.add(L[:, None, :], scaled[None, :, :]).reshape(-1, width)
        packed = _pack(L, q)
        step = BATCH // len(L)
        for start in range(0, q ** high, step):
            stop = min(start + step, q ** high)
            msgs = np.zeros((stop - start, 1 + high), dtype=G.dtype)
            msgs[:, 0] = 1
            msgs[:, 1:] = _mixed_radix(start, stop, high, q)
            H = linalg.matmul(sub, msgs, G[lead:k - low])
            zeros = _zero_counts(_pack(sub.neg(H), q), packed)
            i = int(zeros.argmax())
            weight = width - int(zeros.flat[i])
            if best is None or weight < best:
                a, b = divmod(i, len(L))
                best = weight
                witness = tuple(int(x) for x in sub.add(H[a, :n], L[b, :n]))
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
    """Whether the permutations (rows) move coordinate 0 to every other.

    A census hands every search the same automorphism, so the answer is
    kept per distinct array of permutations."""
    perms = np.ascontiguousarray(perms, dtype=np.intp)
    return _orbit_is_everything(perms.tobytes(), perms.shape[1])


@functools.lru_cache(maxsize=64)
def _orbit_is_everything(rows: bytes, n: int) -> bool:
    perms = np.frombuffer(rows, dtype=np.intp).reshape(-1, n)
    orbit, size = {0}, 0
    while len(orbit) > size:
        size = len(orbit)
        orbit.update(perms[:, list(orbit)].flat)
    return len(orbit) == perms.shape[1]


def _by_dimension(codes: list):
    """(members, R, pivots) for each dimension k among the RREFs (R,
    pivots) of a list: the indices of its codes, the (B, k, n) stack of
    their bases and their pivots."""
    groups: dict[int, list[int]] = {}
    for i, (_, pivots) in enumerate(codes):
        groups.setdefault(len(pivots), []).append(i)
    for k, members in groups.items():
        yield (members, np.stack([codes[i][0][:k] for i in members]),
               [codes[i][1] for i in members])


def _check_invariant(sub: Subfield, codes: list, perms: np.ndarray) -> None:
    """The rows of every RREF (R, pivots) of the list, moved by every
    permutation (one per row of perms), stay in its row space: one
    stacked membership test per dimension."""
    # coordinate perm[j] of a moved row is coordinate j of the row
    inverse = np.argsort(perms, axis=1)
    for members, R, pivots in _by_dimension(codes):
        moved = R[:, :, inverse].reshape(len(members), -1, R.shape[2])
        if not linalg.in_row_space(sub, R, pivots, moved).all():
            raise AssertionError("permutation does not preserve the code")


def _check_witnesses(sub: Subfield, codes: list, excluded: list | None,
                     results: list) -> None:
    """Re-weigh every witness of the (floor, outside) results, test them
    for membership in their codes, and test the outside witnesses against
    their excluded subcodes: one stacked test per dimension each."""
    if not results:
        return
    n = codes[0][0].shape[1]
    W = np.zeros((len(results), 2, n), dtype=codes[0][0].dtype)
    weights = np.zeros((len(results), 2), dtype=np.intp)
    found = np.zeros((len(results), 2), dtype=bool)
    for b, pair in enumerate(results):
        for j, r in enumerate(pair):
            if r is not None and r.witness is not None:
                W[b, j], weights[b, j], found[b, j] = r.witness, r.value, True
    # a missing witness stays the zero word, of weight 0 and in every code
    if (np.count_nonzero(W, axis=2) != weights).any():
        raise AssertionError("distance witness has the wrong weight")
    for members, R, pivots in _by_dimension(codes):
        if not linalg.in_row_space(sub, R, pivots, W[members]).all():
            raise AssertionError("distance witness is not a codeword")
    for members, R, pivots in _by_dimension(excluded or []):
        inside = linalg.in_row_space(sub, R, pivots, W[members, 1:])[:, 0]
        if (inside & found[members, 1]).any():
            raise AssertionError("distance witness lies in the excluded subcode")


def _reduced(sub: Subfield, G) -> tuple[np.ndarray, tuple[int, ...]]:
    """The RREF (R, pivots) of a generator matrix G, or G itself when it
    is given as such a pair."""
    return G if isinstance(G, tuple) else linalg.rref(sub, np.asarray(G))


def _stack(sub: Subfield, G) -> tuple[list, bool]:
    """The codes of G as a list of RREFs (R, pivots), and whether G is a
    stacked RREF (R (B, m, n), a list of pivots) rather than one code."""
    if isinstance(G, tuple) and G[0].ndim == 3:
        return list(zip(*G)), True
    return [_reduced(sub, G)], False


class _Search:
    """Shared state of one enumeration run.  The code and the excluded
    subcode are generator matrices or RREFs given as (R, pivots) pairs.
    The orbit bound trusts the automorphism: ``_searches`` checks it, and
    the witnesses, for a whole stack of searches."""

    def __init__(self, sub, G, exclude, automorphism, max_weight=None):
        R, piv = _reduced(sub, G)
        # the pivots are an information set, and Gs is the identity there
        self.sub, self.Gs, self.info = sub, R[:len(piv)], piv
        self.k, self.n = self.Gs.shape
        # the layout: the n - k non-pivot columns, zero columns up to wr,
        # then the pivot columns; pos[j] is the place of column j in it
        pivot = np.zeros(self.n, dtype=bool)
        pivot[list(piv)] = True
        order = np.argsort(pivot, kind="stable")
        redundancy = self.n - self.k
        self.wr = _padded(redundancy)
        self.pos = np.empty(self.n, dtype=np.intp)
        self.pos[order] = np.arange(self.n)
        self.pos[order[redundancy:]] += self.wr - redundancy
        # scaled[i, u - 1] = u Gs[i] on the redundancy part, for every
        # unit u, and its negative packed for _zero_counts
        red = np.zeros((self.k, self.wr), dtype=self.Gs.dtype)
        red[:, :redundancy] = self.Gs[:, order[:redundancy]]
        units = np.arange(1, sub.q, dtype=self.Gs.dtype)
        self.scaled = sub.mul(units[None, :, None], red[:, None, :])
        self.neg_scaled = _pack(sub.neg(self.scaled), sub.q)
        self.max_weight = max_weight
        self.work = 0

        self.exclude = None if exclude is None else _reduced(sub, exclude)
        self.orbit_bound = automorphism is not None

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
        if w == 1:
            return self._weigh_rows()
        q = self.sub.q
        cost = (q - 1) ** (w - 1)   # words per support
        size = max(1, BATCH // cost)   # supports per chunk
        # heads per block: its prefix table holds about BATCH * 8 lanes
        # (BATCH rows of 8), as building it takes intp indices eight times
        # the size of the table
        block = max(1, BATCH * 8 // max(8, self.wr) // (q - 1) ** (w - 2))
        # the heads: every (w - 1)-subset of the rows but the last, in
        # combinations order, drawn a block at a time
        heads = itertools.combinations(range(self.k - 1), w - 1)
        for _ in range(0, math.comb(self.k - 1, w - 1), block):
            H = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(heads, block)),
                dtype=np.intp).reshape(-1, w - 1)
            packed = _pack(self._prefixes(H), q)
            # head j has the tails H[j, -1] + 1 .. k - 1, and its run of
            # supports ends at ends[j]
            ends = np.cumsum(self.k - 1 - H[:, -1])
            total = int(ends[-1])
            for first in range(0, total, size):
                m = min(size, total - first)
                room = (DEFAULT_WORK - self.work) // cost
                if room:
                    i = np.arange(first, first + min(room, m))
                    h = np.searchsorted(ends, i, side="right")
                    self._weigh(packed, H, h, i + self.k - ends[h])
                    self.work += cost * min(room, m)
                if room < m:
                    return False
        return True

    def _weigh_rows(self) -> bool:
        """The words of information weight 1, the basis rows, to _take,
        each weighing its nonzeros; False when out of budget."""
        room = DEFAULT_WORK - self.work
        rows = self.Gs[:room]
        if len(rows):
            self._take(rows, np.count_nonzero(rows, axis=1))
        self.work += len(rows)
        return room >= self.k

    def _weigh(self, packed: np.ndarray, H: np.ndarray, h: np.ndarray,
               tail: np.ndarray) -> None:
        """Pass the words of the supports (H[h], tail), one per entry, that
        are lighter than a current best to _take, in enumeration order;
        packed holds the prefixes of the heads H, packed."""
        sub, w = self.sub, H.shape[1] + 1
        # the prefixes of each support's head against its tail's negated
        # unit multiples; on the pivots a word is its w unit coefficients
        weights = w + self.wr - _zero_counts(packed[h], self.neg_scaled[tail])
        cap = self.best_any if self.best_any is not None else self.n + 1
        if self.exclude is not None:
            cap = (self.n + 1 if self.best_out is None
                   else max(cap, self.best_out))
        keep = np.flatnonzero(weights < cap)
        if keep.size:
            s, p, u = np.unravel_index(keep, weights.shape)
            h, tail = h[s], tail[s]
            dtype = self.scaled.dtype
            words = np.zeros((keep.size, self.wr + self.k), dtype=dtype)
            words[:, :self.wr] = sub.add(packed[h, p], self.scaled[tail, u])
            # the coefficients on the pivots: 1 on the leading row, then
            # the unit digits of p and u (the unit of index i is i + 1)
            coef = np.ones((keep.size, w), dtype=dtype)
            if w > 2:
                digits = np.unravel_index(p, (sub.q - 1,) * (w - 2))
                coef[:, 1:-1] = np.stack(digits, axis=1) + 1
            coef[:, -1] = u + 1
            support = np.column_stack((H[h], tail))
            words[np.arange(keep.size)[:, None], self.wr + support] = coef
            self._take(words[:, self.pos], weights.ravel()[keep])

    def _prefixes(self, heads: np.ndarray) -> np.ndarray:
        """P[h, p]: the redundancy part of the leading row of heads[h] plus
        the p-th tuple of unit multiples of its other rows, the first
        scalar most significant."""
        P = self.scaled[heads[:, 0], :1]
        for col in heads[:, 1:].T:
            P = self.sub.add(P[:, :, None, :], self.scaled[col][:, None, :, :])
            P = P.reshape(len(heads), P.shape[1] * P.shape[2], self.wr)
        return P

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
        return floor, DistanceResult(self.best_out, status, self.wit_out)


def _searches(sub: Subfield, codes: list, excluded: list | None,
              automorphism, max_weight) -> list:
    """(floor, outside) for each RREF of codes, off the matching RREF of
    excluded (outside is None without them).

    The guards run once for the whole stack: the automorphism's
    transitivity, then the invariance of every code and excluded subcode,
    and after the searches the witnesses, each by one stacked membership
    test per dimension.
    """
    if not all(pivots for _, pivots in codes):
        raise ValueError("the zero code has no minimum distance")
    if excluded is not None and len(excluded) != len(codes):
        raise ValueError("a stack of codes needs one subcode per code")
    if automorphism is not None:
        perms = np.atleast_2d(automorphism)
        if not _is_transitive(perms):
            raise ValueError("the automorphisms do not act transitively "
                             "on the coordinates")
        _check_invariant(sub, codes + (excluded or []), perms)
    results = [_Search(sub, code, exclude, automorphism, max_weight).run()
               for code, exclude in zip(codes, excluded or [None] * len(codes))]
    _check_witnesses(sub, codes, excluded, results)
    return results


def min_distance_isd(sub: Subfield, G, *,
                     automorphism: np.ndarray | None = None,
                     max_weight: int | None = None):
    """Minimum weight of the code generated by G, a matrix or an RREF
    given as its (R, pivots) pair.

    G may also be a stacked RREF (R (B, m, n), a list of pivots), as
    ``ideal_to_code`` returns it for a ``SpecBatch``; then the result is
    the flat tuple of the B minimum weights.
    """
    codes, stacked = _stack(sub, G)
    floors = [floor for floor, _ in
              _searches(sub, codes, None, automorphism, max_weight)]
    return tuple(floors) if stacked else floors[0]


def min_distance_isd_excluding(sub: Subfield, G, exclude, *,
                               automorphism: np.ndarray | None = None,
                               max_weight: int | None = None) -> tuple:
    """(floor, outside): minimum weights in the code and off the subcode.

    G and exclude are generator matrices or RREFs given as (R, pivots)
    pairs, or two stacked RREFs of B codes and their subcodes; then the
    result is the flat tuple of the B floors followed by the B outside
    weights, of which one code's (floor, outside) is the case B = 1.
    """
    codes, _ = _stack(sub, G)
    excluded, _ = _stack(sub, exclude)
    results = _searches(sub, codes, excluded, automorphism, max_weight)
    return tuple(floor for floor, _ in results) + tuple(
        outside for _, outside in results)


# ---------------------------------------------------------------------------
# stabilizer construction


def check_self_orthogonal(dec: Decomposition, spec) -> None:
    """Raise NotSelfOrthogonalError unless the ideal of spec lies in its
    hermitian dual."""
    ok, block = is_self_orthogonal(dec, spec)
    if not ok:
        raise NotSelfOrthogonalError(
            f"ideal is not hermitian self-orthogonal (block {block})")


def css_hermitian(dec: Decomposition, spec, *, max_weight: int | None = None):
    """Quantum parameters of a hermitian self-orthogonal ideal spec, or
    the list of one record per spec of a ``SpecBatch``.

    ``codes_with_duals`` builds the codes of the specs and of their duals.
    The self-dual specs share one stacked search and the others another,
    each guarded once.
    """
    if dec.mode != HERMITIAN:
        raise ValueError("stabilizer construction needs a hermitian-mode algebra")
    batch = spec if isinstance(spec, SpecBatch) else SpecBatch((spec,))
    for s in batch:
        check_self_orthogonal(dec, s)
    (Rs, small), (Rb, big) = codes_with_duals(dec, batch)
    n, auto = dec.length, code_automorphism(dec)
    self_dual = [i for i, p in enumerate(small) if n == 2 * len(p)]
    proper = [i for i, p in enumerate(small) if n != 2 * len(p)]
    distances = {}   # spec index: (distance, floor)
    # nothing lies outside a self-dual subcode: the distance is the floor
    if self_dual:
        floors = min_distance_isd(
            dec.alphabet, (Rb[self_dual], [big[i] for i in self_dual]),
            automorphism=auto, max_weight=max_weight)
        distances.update((i, (f, f)) for i, f in zip(self_dual, floors))
    if proper:
        found = min_distance_isd_excluding(
            dec.alphabet, (Rb[proper], [big[i] for i in proper]),
            (Rs[proper], [small[i] for i in proper]),
            automorphism=auto, max_weight=max_weight)
        floors, outside = found[:len(proper)], found[len(proper):]
        distances.update((i, (o, f)) for i, f, o in zip(proper, floors, outside))
    records = [QuantumRecord(n, n - 2 * len(p), dec.q, *distances[i],
                             n == 2 * len(p))
               for i, p in enumerate(small)]
    for r in records:
        _check_singleton(r)
    return records if isinstance(spec, SpecBatch) else records[0]


def _check_singleton(r: QuantumRecord) -> None:
    """An exact [[n, k, d]] record obeys the quantum Singleton bound
    k <= n - 2d + 2 (for a self-dual one, k = 0: d <= n/2 + 1).  An
    upper_bound record bounds d only from above, so it is not checked."""
    d = r.distance.value
    if r.distance.status == EXACT and r.logical_dim > r.length - 2 * d + 2:
        raise AssertionError(
            f"[[{r.length}, {r.logical_dim}, {d}]] breaks the quantum "
            f"Singleton bound")
