"""Acceptance gate: ten end-to-end checks with hard numeric targets.

Each criterion is one test; the conftest hook prints one PASS/FAIL line
per criterion in the run summary.  Every test enforces its own runtime
ceiling on top of the functional assertions.

The two reference codes of length 32 are fixed by naming a primitive
element xi of GF(81) as a root of x^4 + 2x^3 + 2 over GF(3) and writing
all code data relative to xi and omega = xi^10: the realization pins each
2x2 block's eigenvalue so that the reference ideal labels and the
reference generator elements denote the same codes, which the tests
cross-check before measuring distances.
"""

import time

import numpy as np

from groupcodes import dihedral_algebra as da
from groupcodes import duality as du
from groupcodes import ideals_codes as ic
from groupcodes import linalg
from groupcodes import oracle
from groupcodes import quaternion_algebra as qa
from groupcodes import weights_quantum as wq
from groupcodes.fields import ZERO

from helpers import slot_pow

# ---------------------------------------------------------------------------
# shared system matrix and caches

MATRIX = (
    ("dihedral", 16, 9, ("euclidean", "hermitian")),
    ("dihedral", 7, 4, ("euclidean", "hermitian")),
    ("dihedral", 3, 25, ("euclidean", "hermitian")),
    ("dihedral", 10, 9, ("euclidean", "hermitian")),
    ("quaternion", 7, 11, ("euclidean",)),
)

_dec_cache: dict = {}
_table_cache: dict = {}


def get_dec(group, n, Q, mode):
    key = (group, n, Q, mode)
    if key not in _dec_cache:
        if group == "quaternion":
            _dec_cache[key] = qa.build_quaternion_decomposition(n, Q)
        else:
            _dec_cache[key] = da.build_dihedral_decomposition(n, Q, mode)
    return _dec_cache[key]


def get_table(group, n):
    key = (group, n)
    if key not in _table_cache:
        if group == "quaternion":
            _table_cache[key] = oracle.quaternion_mul_table(n)
        else:
            _table_cache[key] = oracle.dihedral_mul_table(n)
    return _table_cache[key]


def matrix_systems():
    for group, n, Q, modes in MATRIX:
        for mode in modes:
            yield group, n, Q, mode


def oracle_dual(dec, rows):
    if dec.mode == da.HERMITIAN:
        R, pivots = oracle.hermitian_dual_basis(dec.alphabet, rows, dec.q)
    else:
        R, pivots = oracle.euclid_dual_basis(dec.alphabet, rows)
    return R[:len(pivots)]


# ---------------------------------------------------------------------------
# reference code data (length 32 and length 20)
#
# Terms are (rotation exponent, omega exponent); "m" stands for the
# coefficient -1.  The first table of each pair lists coefficients of a^i,
# the second of a^i*b (group index n + i in D_n, as in oracle's tables).
#
# Where code B's data come from, and why they are taken as transcribed
# faithfully although B's minimum distance is 16 where the paper prints 19
# (criterion 6):
# - The ideal labels (spec_b in reference_frame) and the generator element
#   CODE_B_ROT / CODE_B_REF give the same code; reference_frame asserts it.
# - A one-coefficient slip is ruled out: each of the 256 single-coefficient
#   changes of B's generator element (32 positions, 8 other values of GF(9)
#   each) generates a left ideal of dimension 24, 28, 30 or 32, never 8.
# - Other readings of the data give other codes.  Reflection terms read as
#   b*a^i, or the right ideal of the same element: dimension 8, d = 8.
#   omega^5 or omega^7 in place of omega: dimension 30.  Another root of
#   x^4 + 2x^3 + 2 in place of xi is a Galois conjugate, and conjugation
#   preserves weights.
# - d = 19 is reachable by changing one label of spec_b (labels are powers
#   of xi; each neighbour below is still hermitian self-orthogonal):
#     cross block     xi^70 -> xi^10                    [[32,16,6]]
#     GF(9) pair      -1 = xi^40 -> xi^20               [[32,16,6]]
#                     -1 = xi^40 -> xi^50               [[32,16,5]]
#     GF(81) pair     xi^23 -> xi^e, e in {1, 9, 17, 33, 41, 49, 57, 73}
#                                                       [[32,16,6]]
#                     xi^23 -> xi^e, e in {4, 8, 32, 36, 44, 48, 72, 76}
#                                                       [[32,16,5]]
#   Nineteen neighbours reach 19 and none stands out as the intended code;
#   the [[32,16,5]] ones would also break criterion 7.  Of all 15,172
#   hermitian self-orthogonal 8-dimensional ideals of GF(9)[D_16], 2,048
#   have d = 19 and none has more (ISD, every value exact).

CODE_A_ROT = ((1, 3), (2, 7), (3, 1), (5, 0), (6, 5), (7, 0), (8, 0), (9, 3),
              (10, 2), (11, 1), (13, 0), (14, 6), (15, 0))
CODE_A_REF = ((0, 1), (1, 0), (2, 1), (3, 2), (4, 6), (5, 2), (6, "m"),
              (7, 1), (8, 1), (9, 7), (10, 3), (11, 2), (13, 6), (14, 3),
              (15, 3))
CODE_B_ROT = ((0, 0), (1, "m"), (2, 2), (3, "m"), (4, 6), (5, 5), (6, 6),
              (7, 7), (9, "m"), (10, 0), (11, "m"), (12, 2), (13, 5),
              (14, 0), (15, 7))
CODE_B_REF = ((0, "m"), (1, "m"), (2, 0), (3, 3), (5, 6), (6, "m"), (7, "m"),
              (8, 5), (9, 7), (11, "m"), (12, 5), (13, 1), (14, 3), (15, 0))
CODE_C_ROT = ((0, 0), (1, 2), (2, 1), (5, 0), (6, 7), (7, 5), (8, 1), (9, 0))
CODE_C_REF = ((0, 0), (1, 0), (2, 1), (3, 5), (4, 7), (5, 0), (8, 1), (9, 2))


def _poly_eval(F, coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _group_vector(dec, omega, rot_terms, ref_terms):
    """Group-algebra element with omega-power coefficients, index-coded."""
    F, sub, n = dec.F, dec.alphabet, dec.a_order
    vec = np.zeros(dec.length, dtype=np.int32)
    for part, terms in ((0, rot_terms), (1, ref_terms)):
        for i, e in terms:
            x = F.minus_one if e == "m" else F.pow(omega, e)
            vec[part * n + i] = sub.index(x)
    return vec


def _principal_code(dec, table, vec):
    rows = np.stack([oracle.translate_vector(table, g, vec)
                     for g in range(table.shape[0])])
    return linalg.row_basis(dec.alphabet, rows)


_frame_cache: dict = {}


def reference_frame():
    """Pinned realization of the length-32 system plus both reference codes.

    Returns (dec, xi, spec_a, spec_b, rows_a, rows_b) where rows_* are the
    generator-route row bases and spec_* the ideal-label route; the two
    routes are asserted equal before anything downstream uses them.
    """
    if "frame" in _frame_cache:
        return _frame_cache["frame"]
    dec0 = get_dec("dihedral", 16, 9, "hermitian")
    F = dec0.F
    quartic = [F.from_prime_scalar(2), ZERO, ZERO, F.from_prime_scalar(2),
               F.one]
    roots = [x for x in range(F.mult_order)
             if _poly_eval(F, quartic, x) == ZERO]
    assert len(roots) == 4, "x^4 + 2x^3 + 2 must split in GF(81)"
    xi = min(roots)

    root_choices = {}
    for blk in dec0.blocks:
        if blk.kind == da.CROSS_FIXED:
            root_choices[blk.factors[0].coset] = F.pow(xi, 60)
        elif blk.kind == da.FREE:
            exp = 50 if blk.slots[0].field.q == 9 else 65
            root_choices[blk.factors[0].coset] = F.pow(xi, exp)
    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN,
                                          root_choices=root_choices,
                                          master=F)

    cross = pair9 = pair81 = None
    off = 0
    for blk in dec.blocks:
        if blk.kind == da.CROSS_FIXED:
            cross = off
        elif blk.kind == da.FREE:
            if blk.slots[0].field.q == 9:
                pair9 = (off, off + 1)
            else:
                pair81 = (off, off + 1)
        off += len(blk.slots)
    spec_a = ["zero"] * off
    spec_b = ["zero"] * off
    spec_a[cross] = ("row", F.pow(xi, 70))
    spec_b[cross] = ("row", F.pow(xi, 70))
    spec_a[pair9[1]] = ("row", F.one)
    spec_b[pair9[0]] = ("row", F.minus_one)
    spec_a[pair81[0]] = ("row", F.pow(xi, 14))
    spec_a[pair81[1]] = ("row", F.pow(xi, 2))
    spec_b[pair81[1]] = ("row", F.pow(xi, 23))
    spec_a, spec_b = tuple(spec_a), tuple(spec_b)

    table = get_table("dihedral", 16)
    omega = F.pow(xi, 10)
    rows_a = _principal_code(dec, table,
                             _group_vector(dec, omega, CODE_A_ROT,
                                           CODE_A_REF))
    rows_b = _principal_code(dec, table,
                             _group_vector(dec, omega, CODE_B_ROT,
                                           CODE_B_REF))
    # the ideal-label route and the generator route must agree
    for spec, rows in ((spec_a, rows_a), (spec_b, rows_b)):
        ideal_rows = ic.ideal_to_code(dec, spec)
        assert linalg.row_space_equal(dec.alphabet, ideal_rows, rows), \
            "ideal labels and generator element disagree"
    _frame_cache["frame"] = (dec, xi, spec_a, spec_b, rows_a, rows_b)
    return _frame_cache["frame"]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_factor_classification():
    started = time.perf_counter()
    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
    by_class: dict = {}
    for blk in dec.blocks:
        label = {"field_pair": "J0", "c2": "J0", "recip_fixed": "J1",
                 "conj_fixed": "J2", "cross_fixed": "J3",
                 "free": "J4"}[blk.kind]
        by_class.setdefault(label, []).append(blk)
    assert {k: len(v) for k, v in by_class.items()} == {"J0": 2, "J3": 1,
                                                        "J4": 2}
    assert "J1" not in by_class and "J2" not in by_class
    # the two singleton classes are exactly x - 1 and x + 1
    roots = {blk.factors[0].root for blk in by_class["J0"]}
    assert roots == {dec.F.one, dec.F.minus_one}
    # the two four-element classes consist of linear resp. quadratic factors
    degrees = sorted(blk.factors[0].degree for blk in by_class["J4"])
    assert degrees == [1, 2]
    assert all(len(blk.factors) == 4 for blk in by_class["J4"])
    assert len(by_class["J3"][0].factors) == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"classification took {elapsed:.2f}s (limit 1s)"


def test_criterion_02_ideal_census():
    started = time.perf_counter()
    dec = get_dec("dihedral", 7, 4, "hermitian")
    closed = 0
    by_oracle = 0
    total = 0
    for spec in ic.enumerate_specs(dec):
        total += 1
        flag, _ = du.is_self_orthogonal(dec, spec)
        rows = ic.ideal_to_code(dec, spec)
        dual = oracle_dual(dec, rows)
        contained = linalg.row_space_contains(dec.alphabet, dual, rows)
        assert flag == contained, \
            f"closed form and oracle disagree on {ic.format_spec(dec, spec)}"
        closed += flag
        by_oracle += contained
    assert total == 201
    assert closed == 20
    assert by_oracle == 20
    assert du.count_selforth(dec) == 20
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"census took {elapsed:.1f}s (limit 60s)"


def test_criterion_03_quaternion_count():
    started = time.perf_counter()
    dec = get_dec("quaternion", 7, 11, "euclidean")
    assert du.count_selforth(dec) == 3999
    product = 1
    for blk in dec.blocks:
        product *= len(du.selforth_block_options(dec, blk))
    assert product == 3999
    assert sum(1 for _ in du.enumerate_selforth(dec)) == 3999
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"count took {elapsed:.1f}s (limit 60s)"


def test_criterion_04_duality_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    mismatches = 0
    checked = 0
    for group, n, Q, mode in matrix_systems():
        dec = get_dec(group, n, Q, mode)
        for _ in range(200):
            spec = ic.random_spec(dec, rng)
            rows = ic.ideal_to_code(dec, spec)
            closed = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
            if not linalg.row_space_equal(dec.alphabet, closed,
                                          oracle_dual(dec, rows)):
                mismatches += 1
            checked += 1
    assert checked >= 200 * 9
    assert mismatches == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"duality sweep took {elapsed:.1f}s (limit 600s)"


def test_criterion_05_isomorphism_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for group, n, Q, mode in matrix_systems():
        dec = get_dec(group, n, Q, mode)
        table = get_table(group, n)
        # 500 pairs (u, v), drawn in one batch
        pairs = rng.integers(0, dec.Q, (500, 2, dec.length)).astype(np.int32)
        U, V = pairs[:, 0], pairs[:, 1]
        W = [oracle.group_mul(dec.alphabet, table, u, v) for u, v in zip(U, V)]
        slots = dec.slots()
        images_u = dec.rho(U)
        for lhs, ru, rv in zip(dec.rho(W), images_u, dec.rho(V)):
            rhs = [da.slot_mul(s, x, y) for s, x, y in zip(slots, ru, rv)]
            assert lhs == rhs, f"multiplicativity failed for {group} {n} {Q}"
        assert np.array_equal(dec.rho_inv(images_u), U), "round trip failed"
        # generator relations, checked slotwise on the images of 1, a and b
        gens = np.zeros((3, dec.length), dtype=np.int32)
        gens[[0, 1, 2], [0, 1, dec.a_order]] = 1
        ident, A, B = dec.rho(gens)
        a_pow = [slot_pow(s, x, dec.a_order) for s, x in zip(slots, A)]
        assert a_pow == ident, "a^order != 1"
        b_sq = [da.slot_mul(s, x, x) for s, x in zip(slots, B)]
        if group == "quaternion":
            half = [slot_pow(s, x, n) for s, x in zip(slots, A)]
            assert b_sq == half, "b^2 != a^n"
        else:
            assert b_sq == ident, "b^2 != 1"
        ab = [da.slot_mul(s, x, y) for s, x, y in zip(slots, A, B)]
        a_inv = [slot_pow(s, x, dec.a_order - 1) for s, x in zip(slots, A)]
        b_ainv = [da.slot_mul(s, y, x) for s, x, y in zip(slots, a_inv, B)]
        assert ab == b_ainv, "ab != b a^-1"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"property suite took {elapsed:.1f}s (limit 300s)"


def test_criterion_06_reference_code_parameters():
    """Exact minimum distances of the two length-32 reference codes.

    Code A has d = 12, as in the paper.  For code B the paper states
    d = 19, but the code built from its data (see the comment above
    CODE_A_ROT) has d = 16, and that is what is asserted:
    - information-set search finds 16, status exact;
    - the exhaustive scan of all (9^8 - 1) / 8 = 5,380,840 projective
      messages, which shares no search code with it, also finds 16; it
      runs on every pass and its weight-16 witness is re-checked;
    - a separate computation with no groupcodes import (GF(81) from the
      Conway polynomial x^4 + 2x^3 + 2, omega = xi^10, the 32 left
      translates of B's generator element, rank 8, all 9^8 codewords)
      gives A_1..A_15 = 0, A_16 = 128, A_17 = 0, A_18 = 128, A_19 = 256.
    The paper text at hand does not settle whether its distance or its
    code data are misprinted, so the paper's 19 is recorded here and not
    asserted.
    """
    dec, xi, spec_a, spec_b, rows_a, rows_b = reference_frame()
    sub = dec.alphabet
    auto = wq.code_automorphism(dec)

    started = time.perf_counter()
    assert rows_a.shape == (12, 32)
    res_a = wq.min_distance_isd(sub, rows_a, automorphism=auto)
    elapsed_a = time.perf_counter() - started
    assert res_a.status == wq.EXACT, "first code needs an exact distance"
    assert res_a.value == 12, f"first code distance {res_a.value} != 12"
    assert elapsed_a < 900.0, f"first code took {elapsed_a:.0f}s (limit 900s)"

    started = time.perf_counter()
    assert rows_b.shape == (8, 32)
    res_b = wq.min_distance_isd(sub, rows_b, automorphism=auto)
    assert res_b.status == wq.EXACT, "second code needs an exact distance"
    assert res_b.value == 16, f"second code distance {res_b.value} != 16"
    certified = wq.min_distance_exhaustive(sub, rows_b, budget=6 * 10 ** 6)
    elapsed_b = time.perf_counter() - started
    assert (certified.value, certified.status) == (16, wq.EXACT), \
        f"exhaustive scan of the second code gives {certified.value}"
    witness = np.asarray(certified.witness, dtype=rows_b.dtype)
    assert np.count_nonzero(witness) == 16, "witness does not weigh 16"
    assert linalg.row_space_contains(sub, rows_b, witness[None, :]), \
        "witness is not a codeword of the second code"
    assert elapsed_b < 900.0, f"second code took {elapsed_b:.0f}s (limit 900s)"


def test_criterion_07_quantum_parameters():
    dec, xi, spec_a, spec_b, rows_a, rows_b = reference_frame()
    targets = ((spec_a, 32, 8, 8), (spec_b, 32, 16, 6))
    for spec, n, k_q, d_q in targets:
        rec = wq.css_hermitian(dec, spec)
        assert rec.length == n
        assert rec.logical_dim == k_q
        assert rec.base_field == 3
        assert rec.distance.status in (wq.EXACT, wq.UPPER_BOUND)
        assert rec.distance.value == d_q, \
            f"[[{n},{k_q}]]: distance {rec.distance.value} != {d_q}"
        # the floor theorem d_Q >= d(dual) must stay consistent
        assert rec.floor.value is not None
        assert rec.distance.value >= rec.floor.value

    dec10 = get_dec("dihedral", 10, 9, "hermitian")
    omega = dec10.F.pow(reference_frame()[1], 10)
    vec = _group_vector(dec10, omega, CODE_C_ROT, CODE_C_REF)
    rows = _principal_code(dec10, get_table("dihedral", 10), vec)
    assert rows.shape == (4, 20)
    spec10 = ic.code_to_ideal(dec10, rows)
    rec = wq.css_hermitian(dec10, spec10)
    assert (rec.length, rec.logical_dim, rec.base_field) == (20, 12, 3)
    assert rec.distance.status in (wq.EXACT, wq.UPPER_BOUND)
    assert rec.distance.value == 4, \
        f"[[20,12]]: distance {rec.distance.value} != 4"
    assert rec.distance.value >= rec.floor.value


def test_criterion_08_involution_and_dimension():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 1000:
        for group, n, Q, mode in matrix_systems():
            dec = get_dec(group, n, Q, mode)
            spec = ic.random_spec(dec, rng)
            dual = du.dual_spec(dec, spec)
            assert du.dual_spec(dec, dual) == spec, "dual is not an involution"
            assert (ic.ideal_dimension(dec, spec)
                    + ic.ideal_dimension(dec, dual)) == dec.length
            checked += 1
    assert checked >= 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"involution sweep took {elapsed:.1f}s (limit 120s)"


def test_criterion_09_lambda_solution_counts():
    started = time.perf_counter()
    cases = []
    for q, r in ((3, 1), (3, 2), (5, 1)):
        cases.append(("neg_conj", q, r, q ** r))
        cases.append(("neg_inv_conj", q, r, q ** r + 1))
    cases.append(("inv_conj", 4, 1, 4 + 1))
    for kind, q, r, expected in cases:
        K, sols = du.lambda_solution_set(kind, q, r)
        F = K.master
        conj = q ** r
        everything = list(K.elements())
        assert len(everything) == q ** (2 * r)
        if kind == "neg_conj":
            scan = [x for x in everything
                    if F.add(x, F.pow(x, conj)) == ZERO]
        elif kind == "neg_inv_conj":
            scan = [x for x in everything
                    if x != ZERO and F.mul(x, F.pow(x, conj)) == F.minus_one]
        else:
            scan = [x for x in everything
                    if x != ZERO and F.mul(x, F.pow(x, conj)) == F.one]
        assert len(sols) == expected, (kind, q, r, len(sols))
        assert sorted(sols) == sorted(scan), (kind, q, r)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"solution scan took {elapsed:.1f}s (limit 10s)"


def test_criterion_10_count_three_ways():
    started = time.perf_counter()
    dec = get_dec("dihedral", 7, 4, "hermitian")
    formula = du.count_selforth(dec)
    per_block = 1
    for blk in dec.blocks:
        per_block *= len(du.selforth_block_options(dec, blk))
    by_oracle = 0
    for spec in ic.enumerate_specs(dec):
        rows = ic.ideal_to_code(dec, spec)
        dual = oracle_dual(dec, rows)
        by_oracle += linalg.row_space_contains(dec.alphabet, dual, rows)
    assert formula == per_block == by_oracle == 20
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"three-way count took {elapsed:.1f}s (limit 60s)"
