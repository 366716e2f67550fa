"""Ideal specs, the codes they generate, and recognition of codes as ideals."""

from __future__ import annotations

import math

import numpy as np
import pytest

from groupcodes import dihedral_algebra as da
from groupcodes import duality as du
from groupcodes import quaternion_algebra as qa
from groupcodes import ideals_codes as ic
from groupcodes import linalg, oracle
from groupcodes.fields import ZERO

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


def all_decs():
    return [
        dihedral(16, 9, da.EUCLIDEAN),
        dihedral(16, 9, da.HERMITIAN),
        dihedral(7, 4, da.EUCLIDEAN),
        dihedral(7, 4, da.HERMITIAN),
        dihedral(3, 25, da.HERMITIAN),
        dihedral(10, 9, da.HERMITIAN),
        quaternion(7, 11),
        quaternion(3, 11),
        quaternion(5, 3),
    ]


def group_table(dec):
    if dec.group == "quaternion":
        return oracle.quaternion_mul_table(dec.n)
    return oracle.dihedral_mul_table(dec.n)


# ---------------------------------------------------------------------------
# counting and enumeration


def test_counts_d7_f4():
    assert ic.spec_count(dihedral(7, 4, da.HERMITIAN)) == 201
    assert ic.spec_count(dihedral(7, 4, da.EUCLIDEAN)) == 201


def test_count_q7_f11():
    assert ic.spec_count(quaternion(7, 11)) == 4 * 1334 * 2 * 1334


@pytest.mark.parametrize("dec_of", [lambda: dihedral(7, 4, da.HERMITIAN),
                                    lambda: dihedral(16, 9, da.HERMITIAN),
                                    lambda: quaternion(7, 11)],
                         ids=["d7-gf4", "d16-gf9", "q7-gf11"])
def test_random_spec_matches_list_draw(dec_of):
    # the reference draws from the option lists written out in full
    dec = dec_of()
    options = [ic.slot_ideal_options(s) for s in dec.slots()]
    assert ic.spec_count(dec) == math.prod(len(o) for o in options)
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            want = tuple(o[int(ref.integers(len(o)))] for o in options)
            assert ic.random_spec(dec, rng) == want


def test_enumeration_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        ic.enumerate_specs(quaternion(7, 11))


def test_enumerate_matches_count():
    dec = dihedral(7, 4, da.HERMITIAN)
    specs = list(ic.enumerate_specs(dec))
    assert len(specs) == 201
    assert len(set(specs)) == 201
    assert specs[0] == ic.zero_spec(dec)
    assert specs[-1] == ic.full_spec(dec)


def test_every_d7_ideal_really_is_one():
    # code_to_ideal classifies rows through rho, not through the group table
    # that ideal_to_code translates with, so the round trip is independent
    for mode in (da.HERMITIAN, da.EUCLIDEAN):
        dec = dihedral(7, 4, mode)
        table = group_table(dec)
        dims = []
        for spec in ic.enumerate_specs(dec):
            code = ic.ideal_to_code(dec, spec)
            assert code.shape[0] == ic.ideal_dimension(dec, spec)
            dims.append(code.shape[0])
            assert oracle.is_left_ideal(dec.alphabet, table, code)
            assert ic.code_to_ideal(dec, code) == spec
        assert len(dims) == 201
        assert min(dims) == 0 and max(dims) == 14


def translate_code(dec, spec):
    """The code as the row space of the |G| left translates of one
    generating element (per slot 0, 1, 1 + b, [[0, 0], [0, 1]] or
    [[1, lam], [0, 0]]), row-reduced: the route before slot bases."""
    F = dec.F

    def generator(slot, ideal):
        if ideal == "zero":
            return da.slot_zero(slot)
        if ideal == "full":
            return da.slot_one(slot)
        if ideal == "mid":
            return (F.one, F.one)
        if ideal == "e01":
            return (ZERO, ZERO, ZERO, F.one)
        return (F.one, ideal[1], ZERO, ZERO)

    e = dec.rho_inv([[generator(s, i) for s, i in zip(dec.slots(), spec)]])[0]
    table = group_table(dec)
    translates = np.array([oracle.translate_vector(table, g, e)
                           for g in range(dec.length)])
    return linalg.row_basis(dec.alphabet, translates)


@pytest.mark.parametrize("system", ["d7-gf4-herm", "d7-gf4-eucl", "d16-gf9",
                                    "q7-gf11"])
def test_batch_codes_equal_the_translate_route(system):
    # every spec of D_7/GF(4), in one batch; sampled specs of the others,
    # with their duals and the zero and full specs, in one batch
    if system.startswith("d7"):
        dec = dihedral(7, 4, da.HERMITIAN if "herm" in system else da.EUCLIDEAN)
        specs = list(ic.enumerate_specs(dec))
    else:
        dec = dihedral(16, 9, da.HERMITIAN) if system == "d16-gf9" \
            else quaternion(7, 11)
        rng = np.random.default_rng(dec.length)
        specs = [ic.random_spec(dec, rng) for _ in range(25)]
        specs += [du.dual_spec(dec, s) for s in specs]
        specs += [ic.zero_spec(dec), ic.full_spec(dec)]
    R, pivots = ic.ideal_to_code(dec, ic.SpecBatch(specs))
    assert R.shape == (len(specs), max(map(len, pivots)), dec.length)
    for i, spec in enumerate(specs):
        want = translate_code(dec, spec)
        k = len(pivots[i])
        assert k == want.shape[0] == ic.ideal_dimension(dec, spec)
        assert R[i, :k].tobytes() == want.astype(R.dtype).tobytes()
        assert not R[i, k:].any()
        assert pivots[i] == tuple(int(c) for c in (want != 0).argmax(axis=1))
        single = ic.ideal_to_code(dec, spec)
        assert single.shape == want.shape and (single == want).all()


def test_empty_batch():
    dec = dihedral(7, 4, da.HERMITIAN)
    R, pivots = ic.ideal_to_code(dec, ic.SpecBatch())
    assert R.shape == (0, 0, dec.length) and pivots == []


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("idx", range(9))
def test_spec_code_round_trip(idx):
    dec = all_decs()[idx]
    rng = np.random.default_rng(idx + 1)
    for _ in range(15):
        spec = ic.random_spec(dec, rng)
        code = ic.ideal_to_code(dec, spec)
        assert code.shape[0] == ic.ideal_dimension(dec, spec)
        assert ic.code_to_ideal(dec, code) == spec
    # zero and full
    assert ic.code_to_ideal(dec, ic.ideal_to_code(dec, ic.zero_spec(dec))) == \
        ic.zero_spec(dec)
    full = ic.ideal_to_code(dec, ic.full_spec(dec))
    assert full.shape[0] == dec.length
    assert ic.code_to_ideal(dec, full) == ic.full_spec(dec)


def test_generated_codes_are_group_invariant():
    for dec in [dihedral(10, 9, da.HERMITIAN), quaternion(5, 3)]:
        table = group_table(dec)
        rng = np.random.default_rng(7)
        for _ in range(5):
            code = ic.ideal_to_code(dec, ic.random_spec(dec, rng))
            assert oracle.is_left_ideal(dec.alphabet, table, code)


def test_recognizes_principal_ideals():
    # the span of all translates of a random vector must classify cleanly
    dec = dihedral(16, 9, da.EUCLIDEAN)
    table = group_table(dec)
    rng = np.random.default_rng(23)
    v = rng.integers(0, 9, 32).astype(np.int32)
    rows = np.array([oracle.translate_vector(table, g, v) for g in range(32)])
    spec = ic.code_to_ideal(dec, rows)
    code = ic.ideal_to_code(dec, spec)
    assert linalg.row_space_equal(dec.alphabet, code, linalg.row_basis(dec.alphabet, rows))


def test_rejects_non_ideals():
    dec = dihedral(16, 9, da.EUCLIDEAN)
    slots = dec.slots()
    # a single matrix of rank one spans too little to be an ideal
    j = next(i for i, s in enumerate(slots) if s.kind == da.MAT_SLOT)
    values = [da.slot_zero(s) for s in slots]
    values[j] = (dec.F.one, ZERO, ZERO, ZERO)
    with pytest.raises(ic.NotAnIdealError):
        ic.code_to_ideal(dec, dec.rho_inv([values]))

    dec2 = dihedral(7, 4, da.EUCLIDEAN)
    values = [da.slot_zero(s) for s in dec2.slots()]
    values[0] = (dec2.F.one, ZERO)  # wrong line inside the local slot
    with pytest.raises(ic.NotAnIdealError, match="line"):
        ic.code_to_ideal(dec2, dec2.rho_inv([values]))


# ---------------------------------------------------------------------------
# partial order


def test_spec_contains_matches_row_spaces():
    dec = dihedral(10, 9, da.HERMITIAN)
    rng = np.random.default_rng(11)
    specs = [ic.random_spec(dec, rng) for _ in range(12)]
    codes = {s: ic.ideal_to_code(dec, s) for s in specs}
    for a in specs:
        assert ic.spec_contains(a, ic.zero_spec(dec))
        assert ic.spec_contains(ic.full_spec(dec), a)
        for b in specs:
            left = ic.spec_contains(a, b)
            right = linalg.row_space_contains(dec.alphabet, codes[a], codes[b])
            assert left == right


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("idx", range(9))
def test_spec_text_round_trip(idx):
    dec = all_decs()[idx]
    rng = np.random.default_rng(idx + 100)
    for _ in range(10):
        spec = ic.random_spec(dec, rng)
        text = ic.format_spec(dec, spec)
        assert ic.parse_spec(dec, text) == spec


def test_spec_text_shape():
    dec = dihedral(7, 4, da.HERMITIAN)
    txt = ic.format_spec(dec, ("mid", ("row", dec.blocks[1].slots[0].field.gen)))
    assert txt == "b0:mid; b1:row(g^1)"
    assert ic.parse_spec(dec, txt) == ("mid", ("row", dec.blocks[1].slots[0].field.gen))


def test_parse_rejects_malformed():
    dec = dihedral(7, 4, da.HERMITIAN)
    with pytest.raises(ValueError):
        ic.parse_spec(dec, "b0:mid")
    with pytest.raises(ValueError):
        ic.parse_spec(dec, "b0:e01; b1:zero")
    with pytest.raises(ValueError):
        ic.parse_spec(dec, "b0:mid; b1:row(x)")
    with pytest.raises(ValueError, match="not valid for a mat slot"):
        ic.parse_spec(dec, "b0:zero; b1:mid")
    with pytest.raises(ValueError, match="not valid for a c2 slot"):
        ic.parse_spec(dec, "b0:row(0); b1:zero")
    field_dec = dihedral(10, 9, da.HERMITIAN)   # b0 holds two field slots
    text = ic.format_spec(field_dec, ic.zero_spec(field_dec))
    with pytest.raises(ValueError, match="not valid for a field slot"):
        ic.parse_spec(field_dec, text.replace("zero", "e01", 1))
