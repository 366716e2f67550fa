"""Dual-spec tables against the linear-algebra oracle, and census checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes import cli
from groupcodes import dihedral_algebra as da
from groupcodes import quaternion_algebra as qa
from groupcodes import duality as du
from groupcodes import ideals_codes as ic
from groupcodes import linalg, oracle
from groupcodes.fields import ZERO

from helpers import full_spec, zero_spec

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
        dihedral(5, 4, da.EUCLIDEAN),
        quaternion(7, 11),
        quaternion(3, 11),
        quaternion(5, 3),
    ]


def oracle_dual(dec, code):
    if dec.mode == da.HERMITIAN:
        R, pivots = oracle.hermitian_dual_basis(dec.alphabet, code, dec.q)
    else:
        R, pivots = oracle.euclid_dual_basis(dec.alphabet, code)
    return R[:len(pivots)]


# ---------------------------------------------------------------------------
# the dual tables against the nullspace oracle


@pytest.mark.parametrize("idx", range(10))
def test_dual_spec_matches_oracle(idx):
    dec = all_decs()[idx]
    rng = np.random.default_rng(idx + 31)
    specs = [ic.random_spec(dec, rng) for _ in range(25)]
    specs += [zero_spec(dec), full_spec(dec)]
    for spec in specs:
        code = ic.ideal_to_code(dec, spec)
        want = oracle_dual(dec, code)
        got = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
        assert linalg.row_space_equal(dec.alphabet, got, want)


@pytest.mark.parametrize("idx", range(10))
def test_dual_is_an_involution(idx):
    dec = all_decs()[idx]
    rng = np.random.default_rng(idx + 57)
    for _ in range(40):
        spec = ic.random_spec(dec, rng)
        dual = du.dual_spec(dec, spec)
        assert du.dual_spec(dec, dual) == spec
        assert ic.ideal_dimension(dec, spec) + ic.ideal_dimension(dec, dual) \
            == dec.length


def test_dual_block_on_every_label_tuple():
    """Every block's map is an involution that swaps zero and full and
    pairs each ideal with one of complementary dimension."""
    for dec in all_decs():
        for block in dec.blocks:
            options = [ic.slot_ideal_options(s) for s in block.slots]
            for ideals in itertools.product(*options):
                dual = du.dual_block(dec, block, ideals)
                assert du.dual_block(dec, block, dual) == ideals
                dims = sum(ic._slot_ideal_dim(s, x) for s, x
                           in zip(block.slots * 2, ideals + dual))
                assert dims == block.width
                assert dual.count("full") == ideals.count("zero")
                assert dual.count("zero") == ideals.count("full")


@pytest.mark.parametrize("system", cli.VERIFY_MATRIX + (
    (cli.DIHEDRAL, 21, 4, da.HERMITIAN), (cli.DIHEDRAL, 8, 9, da.HERMITIAN)))
def test_selforth_block_options_match_dual_block(system):
    # the walk that labels each slot option once, and pairs an option of a
    # swapped block's first slot only with the second-slot options its label
    # allows, against the route that dualises every combination of a
    # block's slot options
    dec = cli.build_system(*system)
    for block in dec.blocks:
        options = [ic.slot_ideal_options(s) for s in block.slots]
        want = [ideals for ideals in itertools.product(*options)
                if ic.spec_contains(du.dual_block(dec, block, ideals), ideals)]
        assert du.selforth_block_options(dec, block) == want


def test_dual_on_every_d7_ideal():
    dec = dihedral(7, 4, da.HERMITIAN)
    for spec in ic.enumerate_specs(dec):
        code = ic.ideal_to_code(dec, spec)
        want = oracle_dual(dec, code)
        got = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
        assert linalg.row_space_equal(dec.alphabet, got, want)
        assert du.dual_spec(dec, du.dual_spec(dec, spec)) == spec


# ---------------------------------------------------------------------------
# the closed hull against the rank route


def rank_route_hulls(dec, specs):
    """dim C + dim C^perp - rank [C; C^perp] for each spec's code C, its
    dual C^perp from the oracle's nullspace: no closed form involved."""
    R, pivots = ic.ideal_to_code(dec, ic.SpecBatch(specs))
    D, dual_pivots = cli._oracle_dual(dec, R)
    _, both = linalg.rref(dec.alphabet, np.concatenate([R, D], axis=1))
    return [len(p) + len(d) - len(b)
            for p, d, b in zip(pivots, dual_pivots, both)]


def every_spec(dec):
    return list(ic.enumerate_specs(dec))


def sampled_specs(dec):
    """200 random specs, the zero and full specs and up to 100 specs of the
    self-orthogonal census."""
    rng = np.random.default_rng(dec.length)
    census = list(du.enumerate_selforth(dec))
    picks = rng.choice(len(census), min(100, len(census)), replace=False)
    return ([ic.random_spec(dec, rng) for _ in range(200)]
            + [zero_spec(dec), full_spec(dec)]
            + [census[int(i)] for i in picks])


@pytest.mark.parametrize("system,specs", [
    ((cli.DIHEDRAL, 7, 4, da.HERMITIAN), every_spec),
    ((cli.DIHEDRAL, 7, 4, da.EUCLIDEAN), every_spec),
    ((cli.DIHEDRAL, 9, 2, da.EUCLIDEAN), every_spec),   # a C2 block
    ((cli.QUATERNION, 3, 7, da.EUCLIDEAN), every_spec),
    ((cli.DIHEDRAL, 10, 9, da.HERMITIAN), sampled_specs),
    ((cli.DIHEDRAL, 5, 16, da.HERMITIAN), sampled_specs),
    ((cli.DIHEDRAL, 16, 9, da.HERMITIAN), sampled_specs),
    ((cli.DIHEDRAL, 16, 9, da.EUCLIDEAN), sampled_specs),
])
def test_hull_spec_matches_the_rank_route(system, specs):
    dec = cli.build_system(*system)
    specs = specs(dec)
    hulls = [du.spec_meet(spec, du.dual_spec(dec, spec)) for spec in specs]
    assert [ic.ideal_dimension(dec, h) for h in hulls] == \
        rank_route_hulls(dec, specs)
    for spec, hull in zip(specs, hulls):
        dual = du.dual_spec(dec, spec)
        assert ic.spec_contains(spec, hull) and ic.spec_contains(dual, hull)
        if du.is_self_orthogonal(dec, spec)[0]:
            assert hull == spec


def test_codes_with_duals_matches_each_code():
    dec = dihedral(10, 9, da.HERMITIAN)
    rng = np.random.default_rng(5)
    specs = [zero_spec(dec), ic.random_spec(dec, rng), full_spec(dec),
             ic.random_spec(dec, rng), zero_spec(dec)]
    codes, duals = du.codes_with_duals(dec, specs)
    for (R, pivots), side in ((codes, specs),
                              (duals, [du.dual_spec(dec, s) for s in specs])):
        assert len(R) == len(pivots) == len(specs)
        for spec, Ri, p in zip(side, R, pivots):
            want = ic.ideal_to_code(dec, spec)
            assert len(p) == ic.ideal_dimension(dec, spec)
            assert np.array_equal(Ri[:len(p)], want[:len(p)])
            assert not Ri[len(p):].any()


# the transposed duals on three hermitian and three euclidean systems
_TRANSPOSED = [(cli.DIHEDRAL, 7, 4, da.HERMITIAN),
               (cli.DIHEDRAL, 10, 9, da.HERMITIAN),
               (cli.DIHEDRAL, 5, 16, da.HERMITIAN),
               (cli.DIHEDRAL, 7, 2, da.EUCLIDEAN),
               (cli.DIHEDRAL, 8, 9, da.EUCLIDEAN),
               (cli.QUATERNION, 3, 7, da.EUCLIDEAN)]
# those whose self-orthogonal census holds a self-dual spec
_WITH_SELF_DUAL = [_TRANSPOSED[i] for i in (0, 2, 3)]


def check_transposed_duals(dec, specs):
    """dual_codes on the stacked code of specs: each dual is the identity
    on the code's other columns, above zero rows; it is the nullspace's
    basis there (conjugated in hermitian mode); RREF'd it is the oracle's
    dual, and it spans the code of the dual spec."""
    sub, n = dec.alphabet, dec.length
    R, pivots = ic.ideal_to_code(dec, ic.SpecBatch(specs))
    H, reds = du.dual_codes(dec, R, pivots)
    ref, ref_pivots = (oracle.hermitian_dual_basis(sub, R, dec.q)
                       if dec.mode == da.HERMITIAN
                       else oracle.euclid_dual_basis(sub, R))
    assert len(H) == len(reds) == len(specs)
    for spec, Hb, Rb, piv, red, rp, refb in zip(specs, H, R, pivots, reds,
                                                ref_pivots, ref):
        assert red == tuple(c for c in range(n) if c not in piv)
        basis = Hb[:len(red)]
        assert np.array_equal(basis[:, list(red)],
                              np.eye(len(red), dtype=H.dtype))
        assert not Hb[len(red):].any()
        euclid = (linalg.entrywise_pow(sub, basis, dec.q)
                  if dec.mode == da.HERMITIAN else basis)
        assert np.array_equal(euclid, linalg.nullspace(sub, Rb[:len(piv)]))
        D, dp = linalg.rref(sub, basis)
        assert dp == rp
        assert np.array_equal(D[:len(dp)], refb[:len(dp)])
        assert linalg.row_space_equal(
            sub, basis, ic.ideal_to_code(dec, du.dual_spec(dec, spec)))
    return H, reds


@pytest.mark.parametrize("system", _TRANSPOSED,
                         ids=[f"{g}-{n}-{q}-{m}" for g, n, q, m in _TRANSPOSED])
def test_transposed_duals_on_the_edge_specs(system):
    # the zero spec, whose dual is everything: H = I on all columns; a
    # self-dual spec where there is one; and in euclidean mode the full
    # spec, whose dual is empty
    dec = cli.build_system(*system)
    n = dec.length
    self_dual = [s for s in du.enumerate_selforth(dec)
                 if 2 * ic.ideal_dimension(dec, s) == n][:1]
    assert bool(self_dual) == (system in _WITH_SELF_DUAL)
    specs = [zero_spec(dec)] + self_dual
    if dec.mode == da.EUCLIDEAN:
        specs.append(full_spec(dec))
    H, reds = check_transposed_duals(dec, specs)
    assert reds[0] == tuple(range(n))
    assert np.array_equal(H[0], np.eye(n, dtype=H.dtype))
    if self_dual:
        assert len(reds[1]) == n // 2
    if dec.mode == da.EUCLIDEAN:
        assert reds[-1] == () and not H[-1].any()


@settings(max_examples=40, deadline=None)
@given(system=st.sampled_from(_TRANSPOSED), members=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_transposed_duals_match_the_oracle(system, members, seed):
    dec = cli.build_system(*system)
    rng = np.random.default_rng(seed)
    check_transposed_duals(dec, [ic.random_spec(dec, rng)
                                 for _ in range(members)])


# ---------------------------------------------------------------------------
# self-orthogonal censuses


def selforth_by_filter(dec):
    return sum(1 for spec in ic.enumerate_specs(dec)
               if du.is_self_orthogonal(dec, spec)[0])


def selforth_by_blocks(dec):
    total = 1
    for b in dec.blocks:
        total *= len(du.selforth_block_options(dec, b))
    return total


def test_census_d7_f4_hermitian():
    dec = dihedral(7, 4, da.HERMITIAN)
    assert du.count_selforth(dec) == 20
    assert selforth_by_blocks(dec) == 20
    assert selforth_by_filter(dec) == 20
    specs = list(du.enumerate_selforth(dec))
    assert len(specs) == 20
    for spec in specs:
        code = ic.ideal_to_code(dec, spec)
        assert linalg.row_space_contains(dec.alphabet, oracle_dual(dec, code), code)


def test_census_d16_f9_hermitian():
    dec = dihedral(16, 9, da.HERMITIAN)
    assert du.count_selforth(dec) == 41085
    assert selforth_by_blocks(dec) == 41085


def test_census_d10_f9_hermitian():
    dec = dihedral(10, 9, da.HERMITIAN)
    assert du.count_selforth(dec) == 33 * 33
    specs = list(du.enumerate_selforth(dec))
    assert len(specs) == 33 * 33
    rng = np.random.default_rng(3)
    for k in rng.integers(0, len(specs), 12):
        code = ic.ideal_to_code(dec, specs[int(k)])
        assert linalg.row_space_contains(dec.alphabet, oracle_dual(dec, code), code)


def test_census_d3_f25_hermitian():
    dec = dihedral(3, 25, da.HERMITIAN)
    assert du.count_selforth(dec) == 7
    specs = list(du.enumerate_selforth(dec))
    assert len(specs) == 7
    for spec in specs:
        code = ic.ideal_to_code(dec, spec)
        assert linalg.row_space_contains(dec.alphabet, oracle_dual(dec, code), code)


def test_census_d5_f9_hermitian():
    assert du.count_selforth(dihedral(5, 9, da.HERMITIAN)) == 33


def test_census_q7_f11():
    dec = quaternion(7, 11)
    assert du.count_selforth(dec) == 3999
    assert selforth_by_blocks(dec) == 3999


def product_order(dec):
    """The census in the order of the product of the blocks' options, each
    combination flattened: the order ``css-search`` emits its census in."""
    per_block = [du.selforth_block_options(dec, b) for b in dec.blocks]
    return [tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*per_block)]


@pytest.mark.parametrize("dec", [
    lambda: dihedral(7, 4, da.HERMITIAN),
    lambda: dihedral(10, 9, da.HERMITIAN),
    lambda: dihedral(16, 9, da.HERMITIAN),
    lambda: quaternion(7, 11),
    lambda: dihedral(1, 4, da.HERMITIAN),   # a single block
    # ten blocks, the last of three options: each head of nine blocks
    # joins three specs
    lambda: dihedral(40, 7, da.EUCLIDEAN),
], ids=["d7-f4-herm", "d10-f9-herm", "d16-f9-herm", "q7-f11-eucl",
        "d1-f4-herm", "d40-f7-eucl"])
def test_census_order_is_the_block_product_order(dec):
    dec = dec()
    specs = list(du.enumerate_selforth(dec))
    assert specs == product_order(dec)
    assert len(specs) == du.count_selforth(dec)


def test_census_euclidean():
    dec = dihedral(16, 9, da.EUCLIDEAN)
    assert du.count_selforth(dec) == 3 ** 5
    assert selforth_by_blocks(dec) == 3 ** 5

    dec = dihedral(5, 4, da.EUCLIDEAN)  # char 2: every proper ideal is self-dual
    assert du.count_selforth(dec) == 2 * 6 * 6
    specs = list(du.enumerate_selforth(dec))
    assert len(specs) == 72
    for spec in specs[::5]:
        code = ic.ideal_to_code(dec, spec)
        assert linalg.row_space_contains(dec.alphabet, oracle_dual(dec, code), code)

    dec = dihedral(7, 4, da.EUCLIDEAN)  # char 2 pair block: every line is self-dual
    assert du.count_selforth(dec) == 2 * (64 + 2)
    assert selforth_by_blocks(dec) == 132

    dec = dihedral(5, 3, da.EUCLIDEAN)  # odd-char self-reciprocal block: only 0
    assert du.count_selforth(dec) == 1
    assert list(du.enumerate_selforth(dec)) == [zero_spec(dec)]


def test_selforth_witness_block():
    dec = dihedral(7, 4, da.HERMITIAN)
    ok, witness = du.is_self_orthogonal(dec, ("full", "zero"))
    assert not ok and witness == 0
    ok, witness = du.is_self_orthogonal(dec, ("zero", "full"))
    assert not ok and witness == 1
    ok, witness = du.is_self_orthogonal(dec, ("zero", "zero"))
    assert ok and witness is None


# ---------------------------------------------------------------------------
# scalar conjugation equations


@pytest.mark.parametrize("q,r,want", [(3, 1, 3), (3, 2, 9), (5, 1, 5)])
def test_neg_conj_sizes(q, r, want):
    K, sols = du.lambda_solution_set("neg_conj", q, r)
    assert len(sols) == want
    F = K.master
    for x in sols:
        assert F.add(x, F.pow(x, q ** r)) == ZERO


@pytest.mark.parametrize("q,r,want", [(3, 1, 4), (3, 2, 10), (5, 1, 6)])
def test_neg_inv_conj_sizes(q, r, want):
    K, sols = du.lambda_solution_set("neg_inv_conj", q, r)
    assert len(sols) == want
    F = K.master
    for x in sols:
        assert F.mul(x, F.pow(x, q ** r)) == F.minus_one


def test_inv_conj_size():
    K, sols = du.lambda_solution_set("inv_conj", 4, 1)
    assert len(sols) == 5
    F = K.master
    for x in sols:
        assert F.mul(x, F.pow(x, 4)) == F.one


def test_lambda_parity_errors():
    with pytest.raises(ValueError, match="characteristic"):
        du.lambda_solution_set("neg_conj", 4, 1)
    with pytest.raises(ValueError, match="characteristic"):
        du.lambda_solution_set("inv_conj", 3, 1)
    with pytest.raises(ValueError, match="kind"):
        du.lambda_solution_set("conj", 3, 1)
