"""Field table construction and arithmetic, checked against brute force."""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groupcodes.embeddings import PowerBasis
from groupcodes.fields import (
    DEFAULT_FIELD_BUDGET,
    ZERO,
    _BUILD_BLOCK,
    _COORD_TABLES,
    _TABLES,
    _build_exp_table,
    _single_exact,
    FieldBudgetError,
    MissingSubfieldError,
    Subfield,
    build_field,
    is_prime,
    mult_order,
    smallest_primitive_modulus,
    solve_sum_of_squares,
    split_prime_power,
    sqrt_minus_one,
)

from helpers import prime_coords, scalar_primitive_modulus, subfield

# Conway-style "smallest" primitive moduli, frozen from an independent
# brute-force search (sympy: minimal poly candidates filtered by
# is_irreducible + n_order of x == p^m - 1).
FROZEN_MODULI = {
    (2, 1): (1, 1),            # x + 1
    (2, 2): (1, 1, 1),         # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),      # x^3 + x + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),            # x + 1  (root -1 = 2 generates GF(3)*)
    (3, 2): (2, 1, 1),         # x^2 + x + 2
    (3, 4): (2, 1, 0, 0, 1),   # x^4 + x + 2
    (5, 1): (2, 1),            # x + 2  (root 3 = -2)
    (5, 2): (2, 1, 1),
    (11, 1): (3, 1),           # root 8 generates GF(11)*
    (11, 6): (8, 2, 1, 0, 0, 0, 1),
    # frozen from the one-candidate-at-a-time search (the scalar reference)
    (13, 6): (2, 2, 1, 0, 0, 0, 1),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (7, 8): (3, 1, 0, 0, 0, 0, 0, 0, 1),
    (4093, 2): (2, 1, 1),
}


@pytest.mark.parametrize("p,m", sorted(FROZEN_MODULI))
def test_smallest_primitive_modulus_frozen(p, m):
    assert smallest_primitive_modulus(p, m) == FROZEN_MODULI[(p, m)]


_PRIMES = [p for p in range(2, 4096) if is_prime(p)]


@pytest.mark.parametrize("cases", [
    [(p, m) for p in _PRIMES if p < 256 for m in range(2, 17)
     if p**m <= 2**16],
    [(p, 1) for p in _PRIMES]], ids=["extensions", "prime_fields"])
def test_stacked_search_matches_scalar_reference(cases):
    # the companion-matrix stacks find the modulus the definition does,
    # one candidate at a time: every p^m <= 2^16 with m >= 2 and p < 256,
    # and every prime field of fewer than 4096 elements
    for p, m in cases:
        assert smallest_primitive_modulus(p, m) == \
            scalar_primitive_modulus(p, m), (p, m)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (3, 1), (3, 2), (3, 4), (5, 2), (7, 2), (11, 1)])
def test_tables_consistent(p, m):
    F = build_field(p, m)
    N = F.mult_order
    # exp/log inverse to each other
    for k in range(N):
        assert F.log[F.exp[k]] == k
    assert F.log[0] == ZERO
    # the Zech logarithms add computes: 1 + xi^k by coefficient arithmetic
    for k in range(N):
        assert F.add(F.one, k) == _prime_poly_add(F, F.one, k)


@pytest.mark.parametrize("p,m", [(2, 17), (3, 11), (11, 6)])
def test_tables_built_by_blocks_match_whole_array_formulas(p, m):
    # fields past one build block, the last block short or full; the Zech
    # logarithm add computes for every k against the whole-array formula
    F = build_field(p, m)
    n = F.mult_order
    assert n > _BUILD_BLOCK
    log = np.full(F.order, ZERO, dtype=np.int64)
    log[F.exp] = np.arange(n)
    c0 = F.exp % p
    assert np.array_equal(F.log, log)
    zech = np.fromiter(map(F.add, itertools.repeat(F.one), range(n)),
                       dtype=np.int64, count=n)
    assert np.array_equal(zech, log[F.exp - c0 + (c0 + 1) % p])


def test_build_holds_little_beside_its_tables():
    # built block by block, GF(11^6) peaks at its two tables, exp and log
    # (13.52 MiB), plus temporaries of at most 2 MiB
    tracemalloc.start()
    try:
        F = build_field.__wrapped__(11, 6)   # uncached, so built here
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = {k: v for k, v in vars(F).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["exp", "log"]
    tables = sum(t.nbytes for t in arrays.values())
    assert tables > 13.5 * 2 ** 20
    assert peak <= tables + 2 * 2 ** 20


def int64_exp_table(p, m, modulus):
    """The exp table by the same doubling and blocks in int64 products,
    which numpy computes without BLAS: the reference for the blocks in
    either precision, float32 or float64."""
    n = p**m - 1
    A = np.eye(m, k=1, dtype=np.int64)
    A[m - 1] = [(-c) % p for c in modulus[:m]]
    states = np.eye(1, m, dtype=np.int64)
    while len(states) < min(n, 4096):
        states = np.vstack([states, states @ A % p])
        A = A @ A % p
    weights = p ** np.arange(m, dtype=np.int64)
    exp = np.empty(n, dtype=np.int64)
    for pos in range(0, n, len(states)):
        take = min(len(states), n - pos)
        exp[pos:pos + take] = states[:take] @ weights
        states = states @ A % p
    return exp


# besides small fields: the verify matrix's master GF(11^6); GF(2897^2),
# the largest p with m = 2 in float32, whose product sums reach
# 2 * 2896^2 = 16,773,632 < 2^24; and GF(2903^2), the next prime, whose
# sums reach 2 * 2902^2 = 16,843,208 and so stay in float64
@pytest.mark.parametrize("p,m", [(2, k) for k in range(1, 17)]
                         + [(3, k) for k in range(1, 12)]
                         + [(5, 7), (7, 5), (11, 4), (13, 3)]
                         + [(11, 6), (2897, 2), (2903, 2)])
def test_exp_table_matches_int64_products(p, m):
    assert _single_exact(p, m) == ((p, m) != (2903, 2))
    modulus = smallest_primitive_modulus(p, m)
    exp = _build_exp_table(p, m, modulus)
    assert exp.dtype == np.int32
    assert np.array_equal(exp, int64_exp_table(p, m, modulus))


def test_master_tables_are_int32_and_values_are_not():
    # the tables of the largest master the verify matrix builds hold int32;
    # element values read from them are int64, so exponent products like
    # F.pow's a * e (about 2^41 here) do not wrap
    F = build_field(11, 6)
    assert [t.dtype for t in (F.exp, F.log)] == [np.int32] * 2
    basis = PowerBasis(F.subfield(11 ** 6), F.subfield(11))
    C = np.random.default_rng(6).integers(0, 11, (20, 6))
    x = basis.unflatten(C)
    assert x.dtype == np.int64 and x.max() > 2 ** 20
    for e in (11 ** 3, 11 ** 6 - 2):
        assert [F.pow(a, e) for a in x] == [F.pow(int(a), e) for a in x]


def _prime_poly_add(F, a, b):
    p = F.p
    ca, cb = prime_coords(F, a), prime_coords(F, b)
    coeffs = tuple((x + y) % p for x, y in zip(ca, cb))
    packed = sum(c * p**i for i, c in enumerate(coeffs))
    return int(F.log[packed])


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_add_matches_coefficient_arithmetic(p, m):
    F = build_field(p, m)
    elems = [ZERO] + list(range(F.mult_order))
    for a in elems:
        for b in elems:
            assert F.add(a, b) == _prime_poly_add(F, a, b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(11, 6), (2, 17)]), st.data())
def test_add_matches_coefficient_arithmetic_in_large_fields(pm, data):
    # random pairs, zero and the ends of the exponent range included
    F = build_field(*pm)
    a, b = (data.draw(st.integers(ZERO, F.mult_order - 1)) for _ in range(2))
    assert F.add(a, b) == _prime_poly_add(F, a, b)
    assert F.add(a, F.neg(a)) == ZERO


def test_field_axioms_gf9():
    F = build_field(3, 2)
    elems = [ZERO] + list(range(8))
    for a in elems:
        assert F.add(a, F.neg(a)) == ZERO
        assert F.mul(a, F.one) == a
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(-1, 3**4 - 2), st.integers(-1, 3**4 - 2), st.integers(-1, 3**4 - 2))
def test_associativity_gf81(a, b, c):
    F = build_field(3, 4)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3**4 - 2), st.integers(-10, 10))
def test_pow_inv_gf81(a, e):
    F = build_field(3, 4)
    assert F.mul(a, F.inv(a)) == F.one
    x = F.one
    for _ in range(abs(e)):
        x = F.mul(x, a if e >= 0 else F.inv(a))
    assert F.pow(a, e) == x


def test_budget_error():
    with pytest.raises(FieldBudgetError,
                       match=f"over the table budget {DEFAULT_FIELD_BUDGET}$"):
        build_field(2, 30)


def test_subfield_gf9_in_gf81():
    F = build_field(3, 4)
    S = F.subfield(9)
    assert S.step == 10
    elems = list(S.elements())
    assert len(elems) == 9 and elems[0] == ZERO
    # closure under + and *
    for a in elems:
        for b in elems:
            assert S.contains(F.add(a, b))
            assert S.contains(F.mul(a, b))
    # frobenius x -> x^9 fixes the subfield pointwise; x -> x^3 does not
    for a in elems:
        assert F.pow(a, 9) == a
    assert any(F.pow(a, 3) != a for a in elems)


@pytest.mark.parametrize("p,m,q", [
    (2, 4, 2), (2, 4, 4), (2, 4, 16), (3, 4, 3), (3, 4, 9), (3, 4, 81),
    (5, 2, 5), (5, 2, 25), (11, 3, 11), (11, 3, 1331)])
def test_tables_match_scalar_ops(p, m, q):
    F = build_field(p, m)
    S = F.subfield(q)
    elems = list(S.elements())
    for i, a in enumerate(elems):
        assert S.index(a) == i
        assert S.element(int(S.neg_t[i])) == F.neg(a)
        if i:
            assert S.element(int(S.inv_t[i])) == F.inv(a)
    # every pair up to GF(81), a seeded sample above
    if q <= 81:
        pairs = [(i, j) for i in range(q) for j in range(q)]
    else:
        pairs = np.random.default_rng(q).integers(0, q, (5000, 2)).tolist()
        pairs += [(0, 0), (0, q - 1), (q - 1, 0), (1, 1 + (q - 1) // 2)]
    for i, j in pairs:
        a, b = elems[i], elems[j]
        assert S.element(int(S.add_t[i, j])) == F.add(a, b), (i, j)
        assert S.element(int(S.mul_t[i, j])) == F.mul(a, b), (i, j)
    for t in (S.add_t, S.mul_t, S.neg_t, S.inv_t):
        assert t.dtype == np.int16
    # the regular representation: coordinates are a bijection onto
    # GF(p)^e, additive, and products are coordinates times a matrix
    weights = p ** np.arange(S.degree)
    codes = S.coord_t.astype(np.int64) @ weights
    assert (S.pack_t[codes] == np.arange(q)).all()
    i, j = np.array(pairs).T
    coords = S.coord_t.astype(np.int64)
    assert ((coords[i] + coords[j]) % p == coords[S.add_t[i, j]]).all()
    prod = np.einsum("ka,kab->kb", coords[i], S.mulmat_t[j].astype(np.int64))
    assert (prod % p == coords[S.mul_t[i, j]]).all()


def test_tables_built_lazily():
    # a block field used only through elements / dlog / contains builds
    # none of the seven tables; a coordinate table needs the products, so
    # its first access builds them all
    S = Subfield(build_field(3, 4), 81)
    elems = list(S.elements())
    assert [S.dlog(a) for a in elems[1:4]] == [0, 1, 2]
    assert S.contains(elems[5])
    assert not set(_TABLES) & set(vars(S))
    assert S.coord_t.shape == (81, 4)
    assert set(_TABLES) <= set(vars(S))


@pytest.mark.parametrize("name", ["add_t", "mul_t", "neg_t", "inv_t"])
def test_index_tables_build_no_coordinate_table(name):
    # arithmetic on indices alone never pays for the regular
    # representation
    S = Subfield(build_field(3, 4), 9)
    getattr(S, name)
    built = set(vars(S)) & set(_TABLES)
    assert built == set(_TABLES) - set(_COORD_TABLES)
    S.add(np.arange(9), 1)
    assert not set(_COORD_TABLES) & set(vars(S))
    assert S.pack_t.shape == (9,)
    assert set(_TABLES) <= set(vars(S))


# (p, m) of a master field for each alphabet; at q = 4096 a flat index
# a q + b passes 2^15, so held in int16 it would wrap
_HELPER_MASTERS = {2: (2, 1), 4: (2, 4), 9: (3, 4), 11: (11, 1),
                   25: (5, 2), 81: (3, 4), 4096: (2, 12)}


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(_HELPER_MASTERS)),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                max_side=5),
       dtypes=st.tuples(*[st.sampled_from([np.int16, np.intp])] * 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_array_arithmetic_matches_the_tables(q, shapes, dtypes, seed):
    # the flat gathers equal the 2-D table lookups, broadcasting as they do
    S = subfield(*_HELPER_MASTERS[q], q)
    rng = np.random.default_rng(seed)
    A, B = (rng.integers(0, q, shape).astype(dtype)
            for shape, dtype in zip(shapes.input_shapes, dtypes))
    for got, want in [(S.add(A, B), S.add_t[A, B]),
                      (S.mul(A, B), S.mul_t[A, B]),
                      (S.neg(A), S.neg_t[A]),
                      (S.inv(A | (A == 0)), S.inv_t[A | (A == 0)])]:
        assert np.shape(got) == np.shape(want)
        assert got.dtype == np.int16
        assert (got == want).all()
    # the extremes of the flat index
    top = np.array([q - 1], dtype=np.int16)
    assert S.add(top, top)[0] == S.add_t[q - 1, q - 1]
    assert S.mul(top, top)[0] == S.mul_t[q - 1, q - 1]


@pytest.mark.parametrize("q", [9, 4096])
def test_large_broadcast_is_gathered_in_blocks(q):
    # a broadcast past _GATHER_BLOCK entries and past its operands is
    # gathered a block of rows at a time; blocks of one row when a row
    # alone is larger
    S = build_field(*_HELPER_MASTERS[q]).subfield(q)
    rng = np.random.default_rng(q)
    for a_shape, b_shape in [((700, 1, 40), (1, 9, 40)),
                             ((3, 1, 1), (1, 300, 400)),
                             ((2, 1, 1), (1, 70000, 1))]:
        A = rng.integers(0, q, a_shape).astype(np.int16)
        B = rng.integers(0, q, b_shape).astype(np.int16)
        assert (S.add(A, B) == S.add_t[A, B]).all()
        assert (S.mul(A, B) == S.mul_t[A, B]).all()
        assert (S.mul(B, A) == S.mul_t[B, A]).all()


def test_dropped_field_is_freed_without_gc():
    # a master keeps no strong reference to its subfields, so once its
    # last holder lets go the tables are freed at once, with the cyclic
    # collector off; a subfield keeps its master alive
    gc.disable()
    try:
        F = build_field.__wrapped__(3, 4)   # a table of its own, uncached
        S = F.subfield(9)
        assert S.add_t.shape == (9, 9) and F.subfield(9) is S
        master, sub = weakref.ref(F), weakref.ref(S)
        del F
        assert master() is S.master
        del S
        assert master() is None and sub() is None
    finally:
        gc.enable()


def test_missing_subfield():
    F = build_field(3, 4)
    with pytest.raises(MissingSubfieldError):
        F.subfield(27)  # GF(27) does not sit inside GF(81)
    with pytest.raises(MissingSubfieldError):
        F.subfield(4)


def test_sqrt_minus_one():
    F = build_field(3, 4)
    i9 = sqrt_minus_one(F.subfield(9))
    assert F.mul(i9, i9) == F.minus_one
    assert F.subfield(9).contains(i9)
    with pytest.raises(ValueError):
        sqrt_minus_one(build_field(3, 1).subfield(3))  # -1 not a square mod 3
    F11 = build_field(11, 2)
    i121 = sqrt_minus_one(F11.subfield(121))
    assert F11.mul(i121, i121) == F11.minus_one


@pytest.mark.parametrize("q", [3, 5, 9, 7])
def test_solve_sum_of_squares(q):
    p, e = split_prime_power(q)
    F = build_field(p, 2 * e)
    S = F.subfield(q)
    for c in S.elements():
        u, v = solve_sum_of_squares(S, c)
        assert S.contains(u) and S.contains(v)
        assert F.add(F.mul(u, u), F.mul(v, v)) == c


def test_mult_order():
    assert mult_order(9, 16) == 2   # 9^2 = 81 = 1 mod 16
    assert mult_order(2, 7) == 3
    assert mult_order(11, 14) == 3  # 11^3 = 1331 = 95*14 + 1
    assert mult_order(3, 8) == 2
    with pytest.raises(ValueError):
        mult_order(4, 8)


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(11) == (11, 1)
    assert split_prime_power(64) == (2, 6)
    with pytest.raises(ValueError):
        split_prime_power(12)


def test_nth_root_of_unity():
    F = build_field(3, 4)
    a = F.nth_root_of_unity(16)
    seen = {F.pow(a, k) for k in range(16)}
    assert len(seen) == 16
    with pytest.raises(ValueError):
        F.nth_root_of_unity(7)
