"""Distance machinery: exhaustive scan, information-set search, stabilizers."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes import dihedral_algebra as da
from groupcodes import quaternion_algebra as qa
from groupcodes import duality as du
from groupcodes import ideals_codes as ic
from groupcodes import linalg
from groupcodes import weights_quantum as wq
from groupcodes.fields import ZERO, build_field

from helpers import full_spec, rank, subfield, zero_spec

_cache: dict = {}


def dihedral(n, Q, mode):
    key = ("d", n, Q, mode)
    if key not in _cache:
        _cache[key] = da.build_dihedral_decomposition(n, Q, mode)
    return _cache[key]


def quaternion(n, q):
    key = ("q", n, q)
    if key not in _cache:
        _cache[key] = qa.build_quaternion_decomposition(n, q)
    return _cache[key]


def small_ideals(dec, rng, count, max_dim):
    out = []
    while len(out) < count:
        spec = ic.random_spec(dec, rng)
        dim = ic.ideal_dimension(dec, spec)
        if 0 < dim <= max_dim:
            out.append(spec)
    return out


# ---------------------------------------------------------------------------
# the zero-count kernel


def reference_zero_counts(neg, L):
    """The kernel before word counting: one reduction over the coordinates."""
    return np.add.reduce(neg[..., :, None, :] == L[..., None, :, :],
                         axis=-1, dtype=np.int16)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 70), lead=st.sampled_from([(), (3,), (2, 3), (1, 4)]),
       a=st.integers(1, 30), b=st.integers(1, 30),
       rows=st.sampled_from(["random", "all equal", "no match"]),
       dtype=st.sampled_from([np.int16, np.intp]),
       q=st.sampled_from([4, 256, 257, 1024, 4096]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_counts_match_reference(n, lead, a, b, rows, dtype, q, seed):
    # L lacks the first leading axis, which it is broadcast over; indices
    # run up to q - 1, past one byte from q = 257 on
    rng = np.random.default_rng(seed)
    neg = rng.integers(0, q, size=(*lead, a, n)).astype(dtype)
    L = rng.integers(0, q, size=(*lead[1:], b, n)).astype(dtype)
    if rows == "all equal":
        neg[...] = L[...] = neg.reshape(-1, n)[0].copy()
    elif rows == "no match":
        neg %= q // 2
        L = L % (q // 2) + q // 2
    packed = wq._pack(neg, q)
    assert packed.dtype == (np.uint8 if q <= 256 else np.uint16)
    assert packed.shape == (*lead, a, wq._padded(n))
    got = wq._zero_counts(packed, wq._pack(L, q))
    assert got.dtype == np.int16
    assert got.shape == (*lead, a, b)
    # the zero lanes that pad both rows to whole words match as well
    got -= wq._padded(n) - n
    assert (got == reference_zero_counts(neg, L)).all()
    if rows == "all equal":
        assert (got == n).all()
    elif rows == "no match":
        assert not got.any()


@pytest.mark.parametrize("n", [2048, 2053])
def test_zero_counts_of_long_rows(n):
    rng = np.random.default_rng(n)
    for q in (2, 4096):
        neg = rng.integers(0, q, size=(24, n)).astype(np.int16)
        L = rng.integers(0, q, size=(30, n)).astype(np.intp)
        L[3] = neg[5]
        got = wq._zero_counts(wq._pack(neg, q), wq._pack(L, q))
        got -= wq._padded(n) - n
        assert (got == reference_zero_counts(neg, L)).all()
        assert got[5, 3] == n


# ---------------------------------------------------------------------------
# exhaustive scan against the information-set search


def reference_exhaustive(sub, G):
    """The scan before the low/high split: every batch of 4,096 projective
    messages is one table matmul, and the first lightest word wins."""
    G = linalg.row_basis(sub, np.asarray(G))
    k, q = G.shape[0], sub.q
    best, witness = None, None
    for lead in range(k):
        free = k - 1 - lead
        for start in range(0, q ** free, 4096):
            stop = min(start + 4096, q ** free)
            msgs = np.zeros((stop - start, k), dtype=G.dtype)
            msgs[:, lead] = 1
            if free:
                msgs[:, lead + 1:] = wq._mixed_radix(start, stop, free, q)
            words = linalg.matmul(sub, msgs, G)
            weights = np.count_nonzero(words, axis=1)
            i = int(weights.argmin())
            if best is None or weights[i] < best:
                best, witness = int(weights[i]), tuple(int(x) for x in words[i])
    return wq.DistanceResult(best, wq.EXACT, witness)


_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2), 25: (5, 2)}


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(_FIELDS)), k=st.integers(1, 5),
       extra=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       batch=st.sampled_from([wq.BATCH, 4096, 2, 5, 16, 100]))
def test_exhaustive_matches_reference_scan(q, k, extra, seed, batch):
    # a smaller step size moves the low/high split, so that small codes
    # also get a high part of several digits (batch 2 over GF(2)) or no low
    # part at all (batch 2 or 5 over GF(9))
    if q == 25:
        k = min(k, 4)   # 406,901 messages at k = 5: about 1 s per example
    sub = build_field(*_FIELDS[q]).subfield(q)
    rng = np.random.default_rng(seed)
    G = rng.integers(0, q, size=(k, k + extra)).astype(np.int32)
    G[0, int(rng.integers(k + extra))] = 1   # never the zero code
    want = reference_exhaustive(sub, G)
    with mock.patch.object(wq, "BATCH", batch):
        got = wq.min_distance_exhaustive(sub, G)
    assert got == want


@pytest.mark.parametrize("system,max_dim", [
    (("d", 7, 4, da.EUCLIDEAN), 10),
    (("d", 5, 9, da.EUCLIDEAN), 4),
    (("d", 5, 9, da.HERMITIAN), 4),
    (("q", 3, 11, None), 5),
])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_isd_matches_exhaustive(system, max_dim, seed):
    if system[0] == "d":
        dec = dihedral(*system[1:])
    else:
        dec = quaternion(*system[1:3])
    rng = np.random.default_rng(seed)
    spec = small_ideals(dec, rng, 1, max_dim)[0]
    code = ic.ideal_to_code(dec, spec)
    pi = wq.code_automorphism(dec)
    want = wq.min_distance_exhaustive(dec.alphabet, code)
    with_orbit = wq.min_distance_isd(dec.alphabet, code, automorphism=pi)
    plain = wq.min_distance_isd(dec.alphabet, code)
    assert (with_orbit.value, with_orbit.status) == (want.value, wq.EXACT)
    assert plain.value == want.value
    # witnesses really are codewords of the stated weight
    w = np.array(with_orbit.witness, dtype=code.dtype)
    assert np.count_nonzero(w) == want.value
    R, piv = linalg.rref(dec.alphabet, code)
    assert linalg.in_row_space(dec.alphabet, R, piv, w[None])[0]
    if dec.mode != da.HERMITIAN:
        return
    # off a subideal: keep each slot of the spec or zero it, from the seed
    sub_spec = tuple(x if rng.integers(2) else "zero" for x in spec)
    assert ic.spec_contains(spec, sub_spec)
    small = ic.ideal_to_code(dec, sub_spec)
    floor, outside = wq.min_distance_isd_excluding(
        dec.alphabet, code, small, automorphism=pi)
    assert floor.status == outside.status == wq.EXACT
    assert (floor.value, outside.value) == brute_floor_and_outside(
        dec, code, small)


@settings(max_examples=20, deadline=None)
@given(q=st.sampled_from([1024, 4096]), n=st.integers(2, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_isd_matches_exhaustive_on_wide_alphabets(q, n, seed):
    # indices past 255 need two-byte lanes: one-byte lanes would wrap and
    # match unequal coordinates
    sub = subfield(2, q.bit_length() - 1, q)
    rng = np.random.default_rng(seed)
    G = rng.integers(0, q, size=(2, n)).astype(np.int16)
    G[0, 0], G[1, 0] = 1, 0   # rank 2
    G[1, 1 + int(rng.integers(n - 1))] = 1
    want = wq.min_distance_exhaustive(sub, G)
    got = wq.min_distance_isd(sub, G)
    assert (got.value, got.status) == (want.value, wq.EXACT)
    w = np.array(got.witness, dtype=G.dtype)
    assert np.count_nonzero(w) == want.value
    R, piv = linalg.rref(sub, G)
    assert linalg.in_row_space(sub, R, piv, w[None])[0]


def test_repetition_ideal_distance():
    dec = dihedral(8, 9, da.EUCLIDEAN)
    spec = tuple("full" if i == 0 else "zero" for i in range(len(dec.slots())))
    code = ic.ideal_to_code(dec, spec)
    assert code.shape[0] == 1
    res = wq.min_distance_isd(dec.alphabet, code,
                              automorphism=wq.code_automorphism(dec))
    assert (res.value, res.status) == (16, wq.EXACT)


def test_full_and_zero_codes():
    dec = dihedral(7, 4, da.EUCLIDEAN)
    full = ic.ideal_to_code(dec, full_spec(dec))
    assert wq.min_distance_isd(dec.alphabet, full).value == 1
    zero = ic.ideal_to_code(dec, zero_spec(dec))
    with pytest.raises(ValueError, match="zero code"):
        wq.min_distance_isd(dec.alphabet, zero)
    with pytest.raises(ValueError, match="zero code"):
        wq.min_distance_exhaustive(dec.alphabet, zero)


def test_exhaustive_budget_guard():
    dec = dihedral(16, 9, da.EUCLIDEAN)
    code = ic.ideal_to_code(dec, full_spec(dec))
    with pytest.raises(ValueError, match="budget"):
        wq.min_distance_exhaustive(dec.alphabet, code, budget=1000)


def test_tiny_work_cap_reports_upper_bound(monkeypatch):
    dec = dihedral(10, 9, da.HERMITIAN)
    rng = np.random.default_rng(4)
    spec = small_ideals(dec, rng, 1, 8)[0]
    code = ic.ideal_to_code(dec, spec)
    monkeypatch.setattr(wq, "DEFAULT_WORK", 2)
    res = wq.min_distance_isd(dec.alphabet, code)
    monkeypatch.undo()
    assert res.status == wq.UPPER_BOUND
    exact = wq.min_distance_isd(dec.alphabet, code,
                                automorphism=wq.code_automorphism(dec))
    assert exact.status == wq.EXACT
    assert res.value is None or res.value >= exact.value


def test_rejects_foreign_permutation():
    dec = dihedral(7, 4, da.EUCLIDEAN)
    rng = np.random.default_rng(0)
    spec = small_ideals(dec, rng, 1, 10)[0]
    code = ic.ideal_to_code(dec, spec)
    bad = np.roll(np.arange(dec.length), 1)   # not the group translation
    with pytest.raises(AssertionError, match="preserve"):
        wq.min_distance_isd(dec.alphabet, code, automorphism=bad)
    # one membership test covers every permutation, the last one too
    perms = np.vstack([wq.code_automorphism(dec), bad])
    with pytest.raises(AssertionError, match="preserve"):
        wq.min_distance_isd(dec.alphabet, code, automorphism=perms)


def test_rotation_alone_is_refused():
    # the rotation's two cycles do not carry the orbit bound
    dec = dihedral(7, 4, da.EUCLIDEAN)
    rng = np.random.default_rng(0)
    code = ic.ideal_to_code(dec, small_ideals(dec, rng, 1, 10)[0])
    with pytest.raises(ValueError, match="transitively"):
        wq.min_distance_isd(dec.alphabet, code,
                            automorphism=wq.code_automorphism(dec)[:1])


def test_transitivity_is_checked_once_per_stack():
    # the census batch of GF(4)[D_7] has self-dual and proper specs: one
    # stacked search each, and one transitivity check for each search
    dec = dihedral(7, 4, da.HERMITIAN)
    specs = list(du.enumerate_selforth(dec))
    assert len(specs) == 20
    with mock.patch.object(wq, "_is_transitive",
                           wraps=wq._is_transitive) as check:
        wq.css_hermitian(dec, ic.SpecBatch(specs))
    assert [c.args[0].shape for c in check.call_args_list] == [(2, 14)] * 2


@pytest.mark.parametrize("system", [("d", 10, 9, da.HERMITIAN),
                                    ("d", 7, 4, da.EUCLIDEAN),
                                    ("q", 3, 11, None)])
def test_information_set_is_first_independent_columns(system):
    dec = dihedral(*system[1:]) if system[0] == "d" else quaternion(*system[1:3])
    sub = dec.alphabet
    pi = wq.code_automorphism(dec)
    rng = np.random.default_rng(dec.length)
    for spec in small_ideals(dec, rng, 4, dec.length):
        G = ic.ideal_to_code(dec, spec)
        search = wq._Search(sub, G, None, pi)
        # reference: walk the columns left to right, keep each column that
        # raises the rank
        want: list[int] = []
        for col in range(G.shape[1]):
            if rank(sub, G[:, want + [col]]) == len(want) + 1:
                want.append(col)
        assert list(search.info) == want
        k = G.shape[0]
        assert (search.Gs[:, want] == np.eye(k, dtype=search.Gs.dtype)).all()
        assert linalg.row_space_equal(sub, search.Gs, G)


# ---------------------------------------------------------------------------
# excluding a subcode


def brute_floor_and_outside(dec, big, small):
    sub = dec.alphabet
    q = sub.q
    k = big.shape[0]
    R, piv = linalg.rref(sub, small)
    best_any = best_out = None
    for lead in range(k):
        free = k - 1 - lead
        for start in range(0, q ** free, 4096):
            stop = min(start + 4096, q ** free)
            msgs = np.zeros((stop - start, k), dtype=big.dtype)
            msgs[:, lead] = 1
            if free:
                msgs[:, lead + 1:] = wq._mixed_radix(start, stop, free, q)
            words = linalg.matmul(sub, msgs, big)
            weights = np.count_nonzero(words, axis=1)
            best_any = min(best_any or 10 ** 9, int(weights.min()))
            for j in range(len(words)):
                if best_out is not None and weights[j] >= best_out:
                    continue
                if not linalg.in_row_space(sub, R, piv, words[j][None])[0]:
                    best_out = int(weights[j])
    return best_any, best_out


def d7_css_pair(dec):
    """A [14, 6] hermitian self-orthogonal ideal and its [14, 8] dual."""
    rows = [o for o in du.selforth_block_options(dec, dec.blocks[1])
            if isinstance(o[0], tuple)]
    spec = ("zero", rows[-1][0])
    assert du.is_self_orthogonal(dec, spec)[0]
    small = ic.ideal_to_code(dec, spec)
    big = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
    assert (small.shape[0], big.shape[0]) == (6, 8)
    return small, big


def test_excluding_subcode_matches_brute_force():
    dec = dihedral(7, 4, da.HERMITIAN)
    small, big = d7_css_pair(dec)
    floor, outside = wq.min_distance_isd_excluding(
        dec.alphabet, big, small, automorphism=wq.code_automorphism(dec))
    want_any, want_out = brute_floor_and_outside(dec, big, small)
    assert floor.status == outside.status == wq.EXACT
    assert floor.value == want_any
    assert outside.value == want_out
    # the outside witness is in the big code but not the small one
    w = np.array(outside.witness, dtype=big.dtype)
    Rb, pb = linalg.rref(dec.alphabet, big)
    Rs, ps = linalg.rref(dec.alphabet, small)
    assert linalg.in_row_space(dec.alphabet, Rb, pb, w[None])[0]
    assert not linalg.in_row_space(dec.alphabet, Rs, ps, w[None])[0]


def _wrong_weight(search):
    search.wit_any = (1,) * search.n


def _not_a_codeword(search):
    search.best_any, search.wit_any = 1, (1,) + (0,) * (search.n - 1)


def _outside_not_a_codeword(search):
    search.best_out, search.wit_out = 1, (0,) * (search.n - 1) + (1,)


def _in_subcode(search):
    row = search.exclude[0][0]
    search.best_out = int(np.count_nonzero(row))
    search.wit_out = tuple(int(x) for x in row)


@pytest.mark.parametrize("corrupt,match", [
    (_wrong_weight, "wrong weight"),
    (_not_a_codeword, "not a codeword"),
    (_outside_not_a_codeword, "not a codeword"),
    (_in_subcode, "excluded subcode"),
], ids=["weight", "codeword", "outside-codeword", "subcode"])
def test_bad_witness_is_caught(corrupt, match):
    dec = dihedral(7, 4, da.HERMITIAN)
    small, big = d7_css_pair(dec)
    take = wq._Search._take

    def bad_take(search, words, weights):
        take(search, words, weights)
        corrupt(search)

    with mock.patch.object(wq._Search, "_take", bad_take):
        with pytest.raises(AssertionError, match=match):
            wq.min_distance_isd_excluding(
                dec.alphabet, big, small,
                automorphism=wq.code_automorphism(dec))


def test_excluding_everything_runs_to_exhaustion():
    dec = dihedral(7, 4, da.EUCLIDEAN)
    rng = np.random.default_rng(2)
    spec = small_ideals(dec, rng, 1, 8)[0]
    code = ic.ideal_to_code(dec, spec)
    floor, outside = wq.min_distance_isd_excluding(dec.alphabet, code, code)
    assert outside.value is None and outside.status == wq.EXACT
    assert floor.value is not None


class _PerSupport(wq._Search):
    """The enumeration before chunking: one chain of table gathers and one
    weight count per support, and the budget checked support by support."""

    def _enumerate_weight(self, w):
        q = self.sub.q
        units = np.arange(1, q, dtype=self.Gs.dtype)
        for support in itertools.combinations(range(self.k), w):
            cost = (q - 1) ** (w - 1)
            if self.work + cost > wq.DEFAULT_WORK:
                return False
            self.work += cost
            words = self.Gs[support[0]][None, :]
            for row in support[1:]:
                scaled = self.sub.mul_t[units[:, None], self.Gs[row][None, :]]
                words = self.sub.add_t[words[:, None, :], scaled[None, :, :]]
                words = words.reshape(-1, self.n)
            self._take(words, np.count_nonzero(words, axis=1))
        return True


def css_pairs(dec, seed, count):
    """(big, small) codes of random hermitian self-orthogonal specs: the
    dual code and the code, as css_hermitian builds them."""
    options = [du.selforth_block_options(dec, b) for b in dec.blocks]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec = tuple(x for opts in options
                     for x in opts[int(rng.integers(len(opts)))])
        yield (ic.ideal_to_code(dec, du.dual_spec(dec, spec)),
               ic.ideal_to_code(dec, spec))


@pytest.mark.parametrize("work", [None, 1, 7, 50, 300])
@pytest.mark.parametrize("n,Q", [(7, 4), (10, 9)])
def test_chunked_enumeration_matches_per_support(monkeypatch, n, Q, work):
    # the budgets of 1 to 300 words end the search inside a chunk: at the
    # first or second information weight, with or without the orbit bound
    # (without it, information weight 3 is the last one the reference
    # walks in good time)
    if work is not None:
        monkeypatch.setattr(wq, "DEFAULT_WORK", work)
    dec = dihedral(n, Q, da.HERMITIAN)
    sub, pi = dec.alphabet, wq.code_automorphism(dec)
    pairs = list(css_pairs(dec, n, 8))
    if (n, Q) == (7, 4):
        # a subcode holding every lightest word: floor 4, outside 6
        pairs.append(tuple(ic.ideal_to_code(dec, ic.parse_spec(dec, text))
                           for text in ("b0:mid; b1:e01", "b0:zero; b1:e01")))
    for big, small in pairs:
        for exclude, (automorphism, max_weight) in itertools.product(
                (None, small), ((pi, None), (None, 3))):
            want = _PerSupport(sub, big, exclude, automorphism, max_weight)
            got = wq._Search(sub, big, exclude, automorphism, max_weight)
            assert got.run() == want.run()
            assert got.work == want.work


def test_chunked_enumeration_keeps_outside_candidates():
    # after weight 1, the floor is 1 (inside the subcode) and the best
    # outside word has weight 5; the word of weight 3 met at weight 2 is
    # heavier than the floor but must still reach _take
    sub = build_field(2, 1).subfield(2)
    G = np.array([[1, 0, 0, 0, 0, 0, 0, 0],
                  [0, 1, 0, 1, 1, 1, 1, 1],
                  [0, 0, 1, 1, 1, 1, 1, 0]], dtype=np.int16)
    want = _PerSupport(sub, G, G[:1], None).run()
    got = wq._Search(sub, G, G[:1], None).run()
    assert got == want
    assert (got[0].value, got[1].value) == (1, 3)


def _record(search, words, weights):
    search.seen.extend(zip(map(tuple, words.tolist()), weights.tolist()))


def _matches_per_support(sub, G, max_weight):
    """While no word is kept, every word reaches _take: the chunks must
    hand over the per-support walk's words and weights in its order."""
    want = _PerSupport(sub, G, None, None, max_weight)
    got = wq._Search(sub, G, None, None, max_weight)
    want.seen, got.seen = [], []
    with mock.patch.object(wq._Search, "_take", _record):
        want.run(), got.run()
    assert got.seen == want.seen
    k = got.k
    assert len(got.seen) == sum(
        math.comb(k, w) * (sub.q - 1) ** (w - 1)
        for w in range(1, min(k, max_weight) + 1))


@pytest.mark.parametrize("n,Q", [(7, 4), (10, 9)])
def test_chunked_enumeration_order(n, Q):
    dec = dihedral(n, Q, da.HERMITIAN)
    for big, _ in css_pairs(dec, n, 4):
        _matches_per_support(dec.alphabet, big, 3)


def layout_codes():
    """(name, alphabet, generator matrix): codes whose pivots are not the
    leading columns, a full code, and redundancies of 11 and 8 columns."""
    rng = np.random.default_rng(15)
    gf4, gf9 = build_field(2, 2).subfield(4), build_field(3, 2).subfield(9)
    dec = dihedral(7, 4, da.HERMITIAN)
    big, small = next(css_pairs(dec, 7, 1))
    for name, code in (("permuted-big", big), ("permuted-small", small)):
        perm = rng.permutation(code.shape[1])
        _, piv = linalg.rref(dec.alphabet, code[:, perm])
        assert piv != tuple(range(len(piv)))
        yield name, dec.alphabet, code[:, perm]
    while True:
        full = rng.integers(0, 4, size=(7, 7)).astype(np.int16)
        if rank(gf4, full) == 7:
            break
    yield "full", gf4, full
    for name, (k, n) in (("redundancy-11", (6, 17)), ("redundancy-8", (5, 13))):
        G = rng.integers(0, 9, size=(k, n)).astype(np.int16)
        assert rank(gf9, G) == k
        yield name, gf9, G


_LAYOUT_CODES = list(layout_codes())


@pytest.mark.parametrize("batch", [wq.BATCH, 2000, 300, 40])
@pytest.mark.parametrize("case", range(len(_LAYOUT_CODES)),
                         ids=[name for name, _, _ in _LAYOUT_CODES])
def test_heads_and_layout_match_per_support(monkeypatch, case, batch):
    # information weights 4 and 5, in chunks that start inside a head's
    # run of supports and in head blocks that start inside a weight; the
    # words, weights and order must be the per-support walk's, and so must
    # values, witnesses and work
    _, sub, G = _LAYOUT_CODES[case]
    monkeypatch.setattr(wq, "BATCH", batch)
    starts, blocks = [], []
    weigh = wq._Search._weigh

    def watch(search, packed, H, h, tail):
        # the chunk's first support, and the first head of its block
        starts.append((*H[h[0]].tolist(), int(tail[0])))
        blocks.append(tuple(H[0].tolist()))
        weigh(search, packed, H, h, tail)

    monkeypatch.setattr(wq._Search, "_weigh", watch)
    _matches_per_support(sub, G, 5)
    if batch < wq.BATCH:
        # some chunk's first support is not the first of its head's run
        assert any(len(s) > 2 and s[-1] > s[-2] + 1 for s in starts)
    if batch == 40:
        # some head block of weight 4 or 5 begins after the first head of
        # its weight
        assert any(len(b) > 2 and b != tuple(range(len(b))) for b in blocks)
    for exclude in (None, G[:2]):
        for max_weight in (4, 5):
            want = _PerSupport(sub, G, exclude, None, max_weight)
            got = wq._Search(sub, G, exclude, None, max_weight)
            assert got.run() == want.run()
            assert got.work == want.work


def _work_through(k, q, w):
    """Words of information weight at most w in a code of dimension k."""
    return sum(math.comb(k, v) * (q - 1) ** (v - 1) for v in range(1, w + 1))


def random_code(sub, k, n, seed):
    rng = np.random.default_rng(seed)
    while True:
        G = rng.integers(0, sub.q, size=(k, n)).astype(np.int16)
        if rank(sub, G) == k:
            return G


@pytest.mark.parametrize("q,k,n", [(4, 9, 18), (9, 7, 14)])
def test_budget_cuts_inside_head_blocks(monkeypatch, q, k, n):
    # at 40 words a step, information weights 3 and 4 take several head
    # blocks; budgets that end the search one word short of a block's
    # edge, on it, just past it, a support into the next block and in the
    # middle of the first must cut where the per-support walk cuts
    sub = build_field(*{4: (2, 2), 9: (3, 2)}[q]).subfield(q)
    G = random_code(sub, k, n, q)
    monkeypatch.setattr(wq, "BATCH", 40)
    blocks = []
    prefixes = wq._Search._prefixes

    def watch(search, heads):
        blocks.append(heads.copy())
        return prefixes(search, heads)

    with monkeypatch.context() as m:
        m.setattr(wq._Search, "_prefixes", watch)
        full = wq._Search(sub, G, None, None)
        full.run()
    assert full.work == _work_through(k, q, 4)   # it ends after weight 4
    for w in (3, 4):
        first, *more = [H for H in blocks if H.shape[1] == w - 1]
        assert more   # the weight takes more than one block
        edge = int((k - 1 - first[:, -1]).sum())   # the first's supports
        base, cost = _work_through(k, q, w - 1), (q - 1) ** (w - 1)
        for budget in (base + cost * edge - 1, base + cost * edge,
                       base + cost * edge + cost - 1,
                       base + cost * (edge + 1), base + cost * (edge // 2) + 1):
            monkeypatch.setattr(wq, "DEFAULT_WORK", budget)
            for exclude in (None, G[:2]):
                want = _PerSupport(sub, G, exclude, None)
                got = wq._Search(sub, G, exclude, None)
                result = got.run()
                assert result == want.run()
                assert got.work == want.work <= budget
                assert result[0].status == wq.UPPER_BOUND


def test_weight_one_reads_the_basis_rows(monkeypatch):
    dec = dihedral(7, 4, da.HERMITIAN)
    sub, pi = dec.alphabet, wq.code_automorphism(dec)
    for big, small in css_pairs(dec, 1, 4):
        R, piv = linalg.rref(sub, big)
        k = len(piv)
        rows = np.count_nonzero(R[:k], axis=1)
        # --isd-weight 1: the basis rows alone, in and off the subcode
        for exclude in (None, small):
            want = _PerSupport(sub, big, exclude, pi, 1)
            got = wq._Search(sub, big, exclude, pi, 1)
            assert got.run() == want.run()
            assert got.work == want.work == k
            assert got.best_any == rows.min()
        # a budget below k: an upper bound from the first rows only
        with monkeypatch.context() as m:
            m.setattr(wq, "DEFAULT_WORK", k - 2)
            want = _PerSupport(sub, big, small, pi)
            got = wq._Search(sub, big, small, pi)
            floor, outside = got.run()
            assert (floor, outside) == want.run()
            assert got.work == want.work == k - 2
            assert floor.status == outside.status == wq.UPPER_BOUND
            assert floor.value == rows[:k - 2].min()
            assert floor.witness in set(map(tuple, R[:k - 2].tolist()))
        # a subcode holding every basis row: nothing lies off it yet
        got = wq._Search(sub, big, big, None)
        assert got._enumerate_weight(1)
        assert got.best_out is None and got.best_any == rows.min()
        want = _PerSupport(sub, big, big, None, 3)
        got = wq._Search(sub, big, big, None, 3)
        assert got.run() == want.run()
        assert got.work == want.work


def test_heads_are_streamed(monkeypatch):
    # the budget ends a binary [300, 200] search just inside information
    # weight 4, whose supports have C(199, 3) = 1,293,699 heads: drawn a
    # block at a time, they are never all held at once
    sub = build_field(2, 1).subfield(2)
    code = linalg.rref(sub, random_code(sub, 200, 300, 20))
    budget = _work_through(200, 2, 3) + 1000
    monkeypatch.setattr(wq, "DEFAULT_WORK", budget)
    search = wq._Search(sub, code, None, None, 4)
    tracemalloc.start()
    try:
        floor, _ = search.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert floor.status == wq.UPPER_BOUND and search.work == budget
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("n,Q", [(7, 4), (10, 9)])
def test_padded_searches_keep_their_witnesses(monkeypatch, n, Q):
    # the packer pads the lengths 14 and 20 to 16 and 24 in the exhaustive
    # scan, and each code's n - k redundancy columns in the information-set
    # search; unpadded, with the packer leaving rows at their length, the
    # reduction kernel comparing its lanes and 4,096 words a step, every
    # search must give the same values, statuses and witnesses
    dec = dihedral(n, Q, da.HERMITIAN)
    sub, pi = dec.alphabet, wq.code_automorphism(dec)
    pairs = list(css_pairs(dec, n, 6))

    def searches():
        out = []
        for big, small in pairs:
            out += wq.min_distance_isd_excluding(sub, big, small,
                                                 automorphism=pi)
            out.append(wq.min_distance_isd(sub, big, max_weight=3))
            if Q ** len(small) <= 2 ** 21:
                out.append(wq.min_distance_exhaustive(sub, small))
        return out

    got = searches()
    monkeypatch.setattr(wq, "_padded", lambda n: n)
    monkeypatch.setattr(wq, "_zero_counts", reference_zero_counts)
    monkeypatch.setattr(wq, "BATCH", 4096)
    assert got == searches()
    # both scans really ran unpadded
    assert all(wq._pack(small, Q).shape == small.shape for _, small in pairs)
    assert any(wq._Search(sub, big, None, None).wr % 8 for big, _ in pairs)
    assert any(r.value is not None and r.witness for r in got)


# ---------------------------------------------------------------------------
# stacked searches


def census_batch(dec, step):
    """Every step-th spec of the hermitian census, the zero spec first, and
    the stacked RREFs of their codes and of their duals' codes."""
    batch = list(du.enumerate_selforth(dec))[::step]
    R, pivots = ic.ideal_to_code(dec, ic.SpecBatch(
        x for s in batch for x in (s, du.dual_spec(dec, s))))
    return batch, (R[0::2], pivots[0::2]), (R[1::2], pivots[1::2])


def members(stack, which):
    R, pivots = stack
    return R[which], [pivots[i] for i in which]


# GF(9)[D_10] has no self-dual hermitian ideal (its 1,089 have dimensions
# 0 to 8), so GF(4)[D_7], with 9 self-dual ideals among its 20, adds them
@pytest.mark.parametrize("n,Q,step", [(10, 9, 45), (7, 4, 1)])
def test_stacked_searches_match_per_code(n, Q, step):
    dec = dihedral(n, Q, da.HERMITIAN)
    sub, pi = dec.alphabet, wq.code_automorphism(dec)
    batch, small, big = census_batch(dec, step)
    assert zero_spec(dec) in batch
    B = len(batch)
    for max_weight in (None, 1):
        floors = wq.min_distance_isd(sub, big, automorphism=pi,
                                     max_weight=max_weight)
        assert isinstance(floors, tuple) and len(floors) == B
        for b in range(B):
            assert floors[b] == wq.min_distance_isd(
                sub, (big[0][b], big[1][b]), automorphism=pi,
                max_weight=max_weight)
        # a self-dual code has nothing outside itself: css_hermitian
        # searches it without an excluded subcode
        proper = [b for b in range(B) if 2 * len(small[1][b]) != dec.length]
        found = wq.min_distance_isd_excluding(
            sub, members(big, proper), members(small, proper),
            automorphism=pi, max_weight=max_weight)
        assert len(found) == 2 * len(proper)
        for i, b in enumerate(proper):
            assert (found[i], found[len(proper) + i]) == \
                wq.min_distance_isd_excluding(
                    sub, (big[0][b], big[1][b]),
                    (small[0][b], small[1][b]), automorphism=pi,
                    max_weight=max_weight)
    # a stack of one gives the one code's results as a flat tuple
    one = members(big, [0]), members(small, [0])
    assert wq.min_distance_isd(sub, one[0], automorphism=pi) == (
        wq.min_distance_isd(sub, big[0][0], automorphism=pi),)
    assert wq.min_distance_isd_excluding(sub, *one, automorphism=pi) == \
        wq.min_distance_isd_excluding(sub, big[0][0], small[0][0],
                                      automorphism=pi)


@pytest.mark.parametrize("n,Q,step", [(10, 9, 45), (7, 4, 1)])
def test_css_batch_matches_per_spec(n, Q, step):
    dec = dihedral(n, Q, da.HERMITIAN)
    batch = census_batch(dec, step)[0]
    want = [wq.css_hermitian(dec, spec) for spec in batch]
    assert any(rec.self_dual for rec in want) == (n == 7)
    assert wq.css_hermitian(dec, ic.SpecBatch(batch)) == want
    with pytest.raises(du.NotSelfOrthogonalError):
        wq.css_hermitian(dec, ic.SpecBatch(batch + [full_spec(dec)]))


def permuted_member(sub, stack, b, perm):
    """The stack with member b's columns permuted and reduced again."""
    R, pivots = stack[0].copy(), list(stack[1])
    k = len(pivots[b])
    R[b, :k], pivots[b] = linalg.rref(sub, R[b, :k][:, perm])
    return R, pivots


def test_permuted_member_breaks_the_stack():
    # a valid stack of RREFs, whose member 5 (or 7 of the subcodes) the
    # group no longer fixes: the one stacked invariance test must see it
    dec = dihedral(10, 9, da.HERMITIAN)
    sub, pi = dec.alphabet, wq.code_automorphism(dec)
    _, small, big = census_batch(dec, 45)
    perm = np.random.default_rng(3).permutation(dec.length)
    bad_big = permuted_member(sub, big, 5, perm)
    bad_small = permuted_member(sub, small, 7, perm)
    for call in (lambda: wq.min_distance_isd(sub, bad_big, automorphism=pi),
                 lambda: wq.min_distance_isd_excluding(
                     sub, bad_big, small, automorphism=pi),
                 lambda: wq.min_distance_isd_excluding(
                     sub, big, bad_small, automorphism=pi)):
        with pytest.raises(AssertionError,
                           match="permutation does not preserve the code"):
            call()
    # without the orbit bound nothing needs the invariance
    assert len(wq.min_distance_isd(sub, bad_big)) == len(big[1])


# ---------------------------------------------------------------------------
# stabilizer records


def test_css_requires_hermitian_mode():
    dec = dihedral(7, 4, da.EUCLIDEAN)
    with pytest.raises(ValueError, match="hermitian"):
        wq.css_hermitian(dec, zero_spec(dec))


def test_css_rejects_non_selforth():
    dec = dihedral(7, 4, da.HERMITIAN)
    with pytest.raises(du.NotSelfOrthogonalError):
        wq.css_hermitian(dec, full_spec(dec))


def test_css_records_d7():
    dec = dihedral(7, 4, da.HERMITIAN)
    for spec in du.enumerate_selforth(dec):
        rec = wq.css_hermitian(dec, spec)
        k = ic.ideal_dimension(dec, spec)
        assert rec.length == 14
        assert rec.logical_dim == 14 - 2 * k
        assert rec.base_field == 2
        assert rec.self_dual == (k == 7)
        if k == 0:
            assert rec.distance.value == 1   # the dual is everything
        elif rec.self_dual:
            assert rec.distance == rec.floor
        else:
            assert rec.distance.value >= rec.floor.value
            assert rec.distance.status == wq.EXACT
