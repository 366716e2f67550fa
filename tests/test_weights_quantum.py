"""Distance machinery: exhaustive scan, information-set search, stabilizers."""

from __future__ import annotations

import itertools
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
       batch=st.sampled_from([wq.EXHAUSTIVE_BATCH, 2, 5, 16, 100]))
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
    with mock.patch.object(wq, "EXHAUSTIVE_BATCH", batch):
        got = wq.min_distance_exhaustive(sub, G)
    assert got == want


@pytest.mark.parametrize("system,max_dim", [
    (("d", 7, 4, da.EUCLIDEAN), 10),
    (("d", 5, 9, da.EUCLIDEAN), 4),
    (("d", 5, 9, da.HERMITIAN), 4),
    (("q", 3, 11, None), 5),
])
def test_isd_matches_exhaustive(system, max_dim):
    if system[0] == "d":
        dec = dihedral(*system[1:])
    else:
        dec = quaternion(*system[1:3])
    rng = np.random.default_rng(max_dim * dec.length)
    pi = wq.code_automorphism(dec)
    for spec in small_ideals(dec, rng, 8, max_dim):
        code = ic.ideal_to_code(dec, spec)
        want = wq.min_distance_exhaustive(dec.alphabet, code)
        with_orbit = wq.min_distance_isd(dec.alphabet, code, automorphism=pi)
        plain = wq.min_distance_isd(dec.alphabet, code)
        assert with_orbit.value == want.value
        assert plain.value == want.value
        assert with_orbit.status == wq.EXACT
        # witnesses really are codewords of the stated weight
        w = np.array(with_orbit.witness, dtype=code.dtype)
        assert np.count_nonzero(w) == want.value
        R, piv = linalg.rref(dec.alphabet, code)
        assert linalg.in_row_space(dec.alphabet, R, piv, w)


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
    full = ic.ideal_to_code(dec, ic.full_spec(dec))
    assert wq.min_distance_isd(dec.alphabet, full).value == 1
    zero = ic.ideal_to_code(dec, ic.zero_spec(dec))
    with pytest.raises(ValueError, match="zero code"):
        wq.min_distance_isd(dec.alphabet, zero)
    with pytest.raises(ValueError, match="zero code"):
        wq.min_distance_exhaustive(dec.alphabet, zero)


def test_exhaustive_budget_guard():
    dec = dihedral(16, 9, da.EUCLIDEAN)
    code = ic.ideal_to_code(dec, ic.full_spec(dec))
    with pytest.raises(ValueError, match="budget"):
        wq.min_distance_exhaustive(dec.alphabet, code, budget=1000)


def test_tiny_work_cap_reports_upper_bound():
    dec = dihedral(10, 9, da.HERMITIAN)
    rng = np.random.default_rng(4)
    spec = small_ideals(dec, rng, 1, 8)[0]
    code = ic.ideal_to_code(dec, spec)
    res = wq.min_distance_isd(dec.alphabet, code, max_work=2)
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
        search = wq._Search(sub, G, None, pi, wq.DEFAULT_WORK)
        # reference: walk the rotation cycles in lockstep, keep each column
        # that raises the rank
        cycles = wq._permutation_cycles(pi)
        order = [c for step in itertools.zip_longest(*cycles)
                 for c in step if c is not None]
        want: list[int] = []
        for col in order:
            if linalg.rank(sub, G[:, want + [col]]) == len(want) + 1:
                want.append(col)
        assert search.info == want
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
                if not linalg.in_row_space(sub, R, piv, words[j]):
                    best_out = int(weights[j])
    return best_any, best_out


def test_excluding_subcode_matches_brute_force():
    dec = dihedral(7, 4, da.HERMITIAN)
    rows = [o for o in du.selforth_block_options(dec, dec.blocks[1])
            if isinstance(o[0], tuple)]
    spec = ("zero", rows[-1][0])
    assert du.is_self_orthogonal(dec, spec)[0]
    small = ic.ideal_to_code(dec, spec)
    big = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
    assert (small.shape[0], big.shape[0]) == (6, 8)
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
    assert linalg.in_row_space(dec.alphabet, Rb, pb, w)
    assert not linalg.in_row_space(dec.alphabet, Rs, ps, w)


def test_excluding_everything_runs_to_exhaustion():
    dec = dihedral(7, 4, da.EUCLIDEAN)
    rng = np.random.default_rng(2)
    spec = small_ideals(dec, rng, 1, 8)[0]
    code = ic.ideal_to_code(dec, spec)
    floor, outside = wq.min_distance_isd_excluding(dec.alphabet, code, code)
    assert outside.value is None and outside.status == wq.EXACT
    assert floor.value is not None


# ---------------------------------------------------------------------------
# stabilizer records


def test_css_requires_hermitian_mode():
    dec = dihedral(7, 4, da.EUCLIDEAN)
    with pytest.raises(ValueError, match="hermitian"):
        wq.css_hermitian(dec, ic.zero_spec(dec))


def test_css_rejects_non_selforth():
    dec = dihedral(7, 4, da.HERMITIAN)
    with pytest.raises(du.NotSelfOrthogonalError):
        wq.css_hermitian(dec, ic.full_spec(dec))


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
