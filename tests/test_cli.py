"""End-to-end checks of the command-line surface."""

import gzip
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from groupcodes import cli, linalg
from groupcodes import dihedral_algebra as da
from groupcodes import ideals_codes as ic
from groupcodes import quaternion_algebra as qa
from groupcodes import weights_quantum as wq
from groupcodes.fields import ZERO

from helpers import full_spec, zero_spec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_dihedral_hermitian_block_census(capsys):
    doc = run_json(capsys, "decompose", "--q", "9", "--n", "16",
                   "--metric", "hermitian")
    (res,) = doc["results"]
    assert res["length"] == 32
    assert res["alphabet"] == 9
    assert res["j_sizes"] == {"J0": 2, "J1": 0, "J2": 0, "J3": 1, "J4": 2}
    assert res["ideal_count"] == 195_084_288
    shapes = sorted(s for b in res["blocks"] for s in b["summands"])
    assert shapes == ["F_9", "F_9", "F_9", "F_9",
                      "M_2(F_81)", "M_2(F_81)",
                      "M_2(F_9)", "M_2(F_9)", "M_2(F_9)"]
    for block in res["blocks"]:
        assert block["j_class"] in ("J0", "J1", "J2", "J3", "J4")
        assert block["factors"]


# sha256 of decompose's stdout for systems that between them have every
# block kind of both groups and both metrics (D_5 over GF(4) has
# recip_fixed, D_15 over GF(4) free, Q_15 over GF(23) every kind of Q_n)
PINNED_DECOMPOSITIONS = [
    (("--q", "9", "--n", "16", "--metric", "euclidean"),
     "766a5a330e85555803e24ebab58325ebd8c1a17aa9c1e9e23e09f39340aa2f78"),
    (("--q", "9", "--n", "16", "--metric", "hermitian"),
     "d423d886f4918cd7597597625673f2017ce9093b143d7877cda823c4e1963b9a"),
    (("--q", "4", "--n", "7", "--metric", "euclidean"),
     "87d30a7fa5c6706b139b3cde86d9768ad64e80a220ee24db28a017edb1290190"),
    (("--q", "4", "--n", "7", "--metric", "hermitian"),
     "2f082e86500a5ebe6abd123cc42f7bea482832da392e754b1bb94117546e1d6b"),
    (("--q", "25", "--n", "3", "--metric", "hermitian"),
     "01d34d532ab21b84fd1c887754a4c6fdce7cdf1acac7360d4e50adebabe313b3"),
    (("--q", "9", "--n", "10", "--metric", "hermitian"),
     "2f0c4b709f20799309f89e8a633732d2894b0930032d39331622d863b9059ba4"),
    (("--q", "4", "--n", "5", "--metric", "hermitian"),
     "3e5183d225070892d19f1a310116b75de2d0af5a670440b118b6de45f4c866c4"),
    (("--q", "4", "--n", "15", "--metric", "hermitian"),
     "ed4d0211a2ec9c40743e0cea23271fde825cbb645aeaf60d42b1fa97bb27c9ec"),
    (("--q", "2", "--n", "7", "--metric", "euclidean"),
     "1659e9842c40c32f5760a96dedf8d22ff12871d367690c362df13c8cf8ae7400"),
    (("--q", "5", "--n", "12", "--metric", "euclidean"),
     "5036bc41e83d5b53de43a7f17aef3f4eb2330d2c058e33ca27d5bebf8b891eac"),
    (("--q", "11", "--n", "7", "--group", "quaternion"),
     "f6a803b6d7a78043425fdb5deabf1aeff9995ec7cfad574d9e60ef9323ad1026"),
    (("--q", "11", "--n", "3", "--group", "quaternion"),
     "ba548834c72d2661ef5b7a469ac6cf07ba54efc769d8f4e777ad79f1a112e50d"),
    (("--q", "3", "--n", "5", "--group", "quaternion"),
     "9d02998b98cc726cb3b582c23cadbf21b14c04ead57a5e2641cce9ddfb4f7706"),
    (("--q", "23", "--n", "15", "--group", "quaternion"),
     "6653362e8883f9823fa83981e9a0a8690a6b74f9869dfd40233714b1a13772cf"),
]


@pytest.mark.parametrize("argv,digest", PINNED_DECOMPOSITIONS,
                         ids=[" ".join(a) for a, _ in PINNED_DECOMPOSITIONS])
def test_decompose_output_is_pinned(capsys, argv, digest):
    code, out = run(capsys, "decompose", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decompose_quaternion_shape_counts(capsys):
    doc = run_json(capsys, "decompose", "--q", "11", "--n", "7",
                   "--group", "quaternion")
    (res,) = doc["results"]
    assert res["length"] == 28
    assert res["shape_counts"] == {"r": 0, "s": 1, "t": 0, "k": 1}
    shapes = [b["summands"] for b in res["blocks"]]
    assert shapes == [["F_11", "F_11"], ["M_2(F_1331)"],
                      ["F_121"], ["M_2(F_1331)"]]
    sides = [b["side"] for b in res["blocks"]]
    assert sides == ["A", "A", "B", "B"]


def test_decompose_trivial_rotation_order(capsys):
    doc = run_json(capsys, "decompose", "--q", "5", "--n", "1")
    (res,) = doc["results"]
    assert res["length"] == 2
    assert [b["summands"] for b in res["blocks"]] == [["F_5", "F_5"]]


@pytest.mark.parametrize("q, one", [("3", [["g^0"], ["g^0"]]),
                                    ("2", [["g^0", "0"]])])
def test_decompose_d1_rotation_image_is_one(capsys, q, one):
    # in D_1 the rotation a = a^1 is the identity, at index 0
    doc = run_json(capsys, "decompose", "--q", q, "--n", "1")
    (res,) = doc["results"]
    assert res["generator_images"]["a"] == one


def test_decompose_generator_images_present(capsys):
    doc = run_json(capsys, "decompose", "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    (res,) = doc["results"]
    images = res["generator_images"]
    assert set(images) == {"a", "b"}
    slots = sum(len(b["summands"]) for b in res["blocks"])
    assert len(images["a"]) == slots
    assert len(images["b"]) == slots


# ---------------------------------------------------------------------------
# count


def test_count_dihedral_hermitian(capsys):
    doc = run_json(capsys, "count", "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    (res,) = doc["results"]
    assert res["ideals"] == 201
    assert res["self_orthogonal"] == 20


def test_count_quaternion_euclidean(capsys):
    doc = run_json(capsys, "count", "--q", "11", "--n", "7",
                   "--group", "quaternion")
    (res,) = doc["results"]
    assert res["self_orthogonal"] == 3999


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_limit_and_flags(capsys):
    doc = run_json(capsys, "enumerate", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--limit", "7")
    assert len(doc["results"]) == 7
    assert any("truncated" in w for w in doc["warnings"])
    for rec in doc["results"]:
        assert rec["length"] == 14
        assert 0 <= rec["dimension"] <= 14
        assert rec["dimension"] + rec["dual_dim"] == 14
        assert isinstance(rec["self_orthogonal"], bool)


def test_enumerate_full_small_system(capsys):
    doc = run_json(capsys, "enumerate", "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    assert len(doc["results"]) == 201
    assert sum(r["self_orthogonal"] for r in doc["results"]) == 20


def test_enumerate_budget_guard_without_limit(capsys):
    code, _ = run(capsys, "enumerate", "--q", "11", "--n", "7",
                  "--group", "quaternion")
    assert code == 2
    doc = run_json(capsys, "enumerate", "--q", "11", "--n", "7",
                   "--group", "quaternion", "--limit", "3")
    assert len(doc["results"]) == 3


# ---------------------------------------------------------------------------
# dual / classify


def test_dual_from_spec_file(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("# comment line\n"
                    "b0:zero; b1:zero\n"
                    "b0:mid; b1:full\n")
    doc = run_json(capsys, "dual", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--spec", str(path))
    first, second = doc["results"]
    assert first["dual_spec"] == "b0:full; b1:full"
    assert second["dimension"] + second["dual_dim"] == 14
    assert second["dual_spec"] == "b0:mid; b1:zero"


def test_classify_hull_and_lcd(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("b0:zero; b1:zero\n"
                    "b0:mid; b1:full\n"
                    "b0:full; b1:full\n")
    doc = run_json(capsys, "classify", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--spec", str(path))
    zero, mid, full = doc["results"]
    assert zero["hull_dimension"] == 0 and zero["lcd"]
    assert mid["hull_dimension"] == 1 and not mid["lcd"]
    # full algebra: hull = dual of the full code = zero
    assert full["hull_dimension"] == 0 and full["lcd"]
    for rec in doc["results"]:
        assert len(rec["block_labels"]) == 2
        kinds = [b["kind"] for b in rec["block_labels"]]
        assert kinds == ["c2", "conj_fixed"]
        rebuilt = "; ".join(b["label"] for b in rec["block_labels"])
        assert rebuilt == rec["spec"]


# ---------------------------------------------------------------------------
# css-search


def test_css_search_small_system(capsys):
    doc = run_json(capsys, "css-search", "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    results = doc["results"]
    assert len(results) == 20
    assert all(r["distance_status"] == "exact" for r in results)
    params = {(r["length"], r["logical_dim"], r["distance"])
              for r in results}
    assert (14, 12, 2) in params
    assert (14, 2, 3) in params
    # ranking: logical dimension descending
    dims = [r["logical_dim"] for r in results]
    assert dims == sorted(dims, reverse=True)
    for r in results:
        assert r["base_field"] == 2
        # logical dimension n - 2k has the parity of n
        assert (r["length"] - r["logical_dim"]) % 2 == 0


def test_css_search_builds_each_code_once(capsys, monkeypatch):
    # the code of each record's spec, built in one batch (the 20 specs of
    # GF(4)[D_7] fit one); its dual is transposed from it, not built, and
    # the witness re-check reuses the dual searched
    calls = []
    original = ic.ideal_to_code

    def counting(dec, spec):
        calls.extend(spec if isinstance(spec, ic.SpecBatch) else [spec])
        return original(dec, spec)

    monkeypatch.setattr(ic, "ideal_to_code", counting)
    monkeypatch.setattr(cli.du, "ideal_to_code", counting)
    monkeypatch.setattr(wq, "ideal_to_code", counting)
    doc = run_json(capsys, "css-search", "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    assert len(doc["results"]) == 20
    assert len(calls) == len(doc["results"])


@pytest.mark.parametrize("command,records,rrefs", [
    # one stacked RREF for the codes of the 20 specs (one batch of 20),
    # none for their duals, which are transposed from it, none in the
    # searches, which take those bases, and two for the decomposition:
    # the change of basis of each of its two block fields, GF(4) and
    # GF(64).  Its matrix is inverted in closed form, so [mat | I] is no
    # longer eliminated
    ("css-search", 20, 3),
    # one stacked RREF per batch of codes (201 specs, 167 to a batch of
    # 2^15 // 14^2), two per batch holding a nonzero self-orthogonal record
    # (the witness of all 19 of them, in the first batch: the hermitian
    # oracle's one and the nullspace's), two for the decomposition,
    # 2 + 2 + 2
    ("enumerate", 201, 6),
    # the same over a file of the 201 specs; the hulls come from the
    # specs, so no dual code is built and no rank taken
    ("classify", 201, 6),
])
def test_rref_calls_per_run(capsys, monkeypatch, tmp_path, command, records,
                            rrefs):
    argv = [command, "--q", "4", "--n", "7", "--metric", "hermitian"]
    if command == "classify":
        dec = cli.build_system(cli.DIHEDRAL, 7, 4, "hermitian")
        path = tmp_path / "specs.txt"
        path.write_text("".join(ic.format_spec(dec, spec) + "\n"
                                for spec in ic.enumerate_specs(dec)))
        argv += ["--spec", str(path)]
    calls = []
    original = linalg.rref

    def counting(sub, A):
        calls.append(A.shape)
        return original(sub, A)

    monkeypatch.setattr(linalg, "rref", counting)
    doc = run_json(capsys, *argv)
    assert len(doc["results"]) == records
    assert len(calls) == rrefs


def test_matmul_calls_per_run(capsys, monkeypatch):
    # the decomposition's closed-form inverse: one stacked product per
    # block field, GF(4) (the C2 slot's 2 entries, d = 1) and GF(64) (the
    # 2x2 slot's 4 entries, d = 3), and the check that mat times it is
    # the identity;
    # one rho_inv for the 10 codes (5 specs, each with its dual): the 51
    # basis rows of their distinct slot ideals (C2 slot: "full" 2 and "mid"
    # 1; the 2x2 slot over GF(64), d = 3: "e01" and seven row(lam), 6
    # each);
    # and one batched rho for each of u, v and uv over the 5
    # multiplicativity pairs
    calls = []
    original = linalg.matmul

    def counting(sub, A, B):
        calls.append(A.shape)
        return original(sub, A, B)

    monkeypatch.setattr(linalg, "matmul", counting)
    doc = run_json(capsys, "verify", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--limit", "5")
    assert doc["results"][0]["ok"]
    assert calls == [(2, 1, 1), (4, 3, 3), (14, 14), (51, 14)] + [(5, 14)] * 3


@pytest.mark.parametrize("command,records,tests", [
    # the 20 specs are one batch: 9 self-dual of dimension 7, 9 of
    # dimension 6, one of dimension 1 and the zero spec.  The 9 self-dual
    # codes share one search: one invariance test (both automorphisms at
    # once) and one witness test.  The other 11 share another: their codes
    # have dimensions 8, 13 and 14 and their excluded subcodes 6, 1 and 0,
    # so 6 invariance tests, 3 witness membership tests and 3 tests of the
    # outside witnesses against their subcodes, one per dimension; and one
    # batch of candidates lighter than the best outside word for each of
    # the 11 excluded subcodes, since every search here closes after
    # information weight 1, whose k supports are one chunk: 2 + 12 + 11
    ("css-search", 20, 25),
    # one stacked test per batch of codes holding a nonzero
    # self-orthogonal record: all 19 of them, in the first batch
    ("enumerate", 201, 1),
])
def test_in_row_space_calls_per_run(capsys, monkeypatch, command, records,
                                    tests):
    calls = []
    original = linalg.in_row_space

    def counting(sub, R, pivots, V):
        calls.append(V.shape)
        return original(sub, R, pivots, V)

    monkeypatch.setattr(linalg, "in_row_space", counting)
    doc = run_json(capsys, command, "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    assert len(doc["results"]) == records
    assert len(calls) == tests


def test_css_search_requires_hermitian(capsys):
    code, _ = run(capsys, "css-search", "--q", "4", "--n", "7")
    assert code == 2


def test_css_search_skips_non_selforth_specs(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("b0:full; b1:zero\n"
                    "b0:mid; b1:zero\n")
    doc = run_json(capsys, "css-search", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--spec", str(path))
    assert len(doc["results"]) == 1
    assert any("skipped" in w for w in doc["warnings"])


def test_css_search_skips_in_the_middle_of_a_batch(capsys, tmp_path):
    # the seven lines are one batch of codes; the two that are not
    # self-orthogonal are skipped in file order, and the others keep
    # their records
    lines = ["b0:mid; b1:e01", "b0:full; b1:zero", "b0:zero; b1:zero",
             "b0:mid; b1:row(g^9)", "b0:zero; b1:full", "b0:mid; b1:zero",
             "b0:zero; b1:row(0)"]
    path = tmp_path / "specs.txt"
    path.write_text("\n".join(lines) + "\n")
    doc = run_json(capsys, "css-search", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--spec", str(path))
    assert doc["warnings"] == [
        "skipped b0:full; b1:zero: ideal is not hermitian self-orthogonal "
        "(block 0)",
        "skipped b0:zero; b1:full: ideal is not hermitian self-orthogonal "
        "(block 1)"]
    kept = [line for line in lines if "full" not in line]
    assert sorted(r["spec"] for r in doc["results"]) == sorted(kept)
    census = run_json(capsys, "css-search", "--q", "4", "--n", "7",
                      "--metric", "hermitian")["results"]
    assert doc["results"] == [r for r in census if r["spec"] in kept]


def test_css_search_census_matches_the_benchmark_golden(capsys):
    # the whole GF(9)[D_10] census, record for record and in order, against
    # the benchmark's golden (read, never written)
    golden = Path(__file__).resolve().parent.parent / "perfbench" / \
        "goldens" / "census-d10.json.gz"
    with gzip.open(golden, "rt") as fh:
        want = json.load(fh)
    doc = run_json(capsys, "css-search", "--q", "9", "--n", "10",
                   "--metric", "hermitian")
    assert doc["warnings"] == []
    assert doc["results"] == want


# sha256 of css-search's stdout: a record depends on the dual code, not on
# how its basis was built, and the --isd-weight 1 run also pins the upper
# bounds, which depend on the information set the basis gives the search
PINNED_CSS_SEARCHES = [
    (("--q", "4", "--n", "7"),
     "dc597bc525c9dfc7ce924a73540b7645739984eed038f3c0d28969463f8eafa7"),
    (("--q", "9", "--n", "10"),
     "4c22ec9b29769e1664797d6f952f1a18280c9679ca89678d075b803f954262e2"),
    (("--q", "9", "--n", "10", "--isd-weight", "1"),
     "2f31fa68ffada5ac282f62bfda327d0785c3079548f1e0225504ebf2cd5800db"),
]


@pytest.mark.parametrize("argv,digest", PINNED_CSS_SEARCHES,
                         ids=[" ".join(a) for a, _ in PINNED_CSS_SEARCHES])
def test_css_search_output_is_pinned(capsys, argv, digest):
    code, out = run(capsys, "css-search", *argv, "--metric", "hermitian")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dual_gram_guard_exit(capsys, monkeypatch):
    # one entry of one member's transposed dual corrupted, at the first
    # pivot of its code, where the code's row is 1: the batch's one Gram
    # product meets it before any search
    transpose = wq.dual_codes

    def corrupted(dec, R, pivots):
        H, reds = transpose(dec, R, pivots)
        b = next(i for i, p in enumerate(pivots) if p)
        H[b, 0, pivots[b][0]] = dec.alphabet.add(H[b, 0, pivots[b][0]], 1)
        return H, reds

    monkeypatch.setattr(wq, "dual_codes", corrupted)
    code = cli.main(["css-search", "--q", "4", "--n", "7",
                     "--metric", "hermitian"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: dual code fails the Gram check against its code"]


SIX_SPECS = ["b0:mid; b1:e01", "b0:full; b1:zero", "b0:zero; b1:zero",
             "b0:mid; b1:row(g^9)", "b0:zero; b1:full", "b0:mid; b1:zero"]


@pytest.mark.parametrize("command", ["css-search", "dual", "classify"])
def test_spec_file_honours_limit(capsys, tmp_path, command):
    path = tmp_path / "specs.txt"
    path.write_text("# six specs\n" + "\n".join(SIX_SPECS) + "\n")
    argv = (command, "--q", "4", "--n", "7", "--metric", "hermitian",
            "--spec", str(path))
    doc = run_json(capsys, *argv, "--limit", "2")
    full = run_json(capsys, *argv)
    # the first two specs: css-search skips the second, which is not
    # self-orthogonal
    first = SIX_SPECS[:1] if command == "css-search" else SIX_SPECS[:2]
    assert [r["spec"] for r in doc["results"]] == first
    assert doc["warnings"][0] == "spec file truncated at --limit 2"
    assert doc["results"] == [r for r in full["results"]
                              if r["spec"] in first]
    assert not any("truncated" in w for w in full["warnings"])
    # a limit the file does not reach truncates nothing
    assert run_json(capsys, *argv, "--limit", "6") == {
        **full, "config": {**full["config"], "limit": 6}}


def test_css_search_isd_weight_cap_degrades_status(capsys, tmp_path):
    # a [[20, 12]] code: information weight 1 finds a word of weight 4 but
    # bounds unseen words only by ceil(20 * 2 / 16) = 3; weight 2 closes it
    path = tmp_path / "specs.txt"
    path.write_text("b0:(zero,zero); b1:(zero,zero); b2:(e01,zero); "
                    "b3:(row(0),zero)\n")
    argv = ("css-search", "--q", "9", "--n", "10", "--metric", "hermitian",
            "--spec", str(path))
    (capped,) = run_json(capsys, *argv, "--isd-weight", "1")["results"]
    (full,) = run_json(capsys, *argv)["results"]
    assert capped["distance_status"] == capped["floor_status"] == "upper_bound"
    assert full["distance_status"] == full["floor_status"] == "exact"
    assert capped["distance"] == full["distance"] == 4


# ---------------------------------------------------------------------------
# verify


def test_verify_single_system(capsys):
    doc = run_json(capsys, "verify", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--limit", "10")
    (res,) = doc["results"]
    assert res["ok"]
    assert res["checks"]["dual_vs_oracle"] == 0
    assert res["checks"]["rho_multiplicative"] == 0
    assert res["checks"]["census_formula_vs_enumeration"] == 0


def test_verify_counts_wrong_duals(capsys, monkeypatch):
    # a dual_spec that returns its input is right exactly on the self-dual
    # specs; verify draws its specs first, so the same seed redraws them
    dec = cli.build_system(cli.DIHEDRAL, 7, 4, "euclidean")
    rng = np.random.default_rng(0)
    specs = [ic.random_spec(dec, rng) for _ in range(50)]
    wrong = sum(cli.du.dual_spec(dec, s) != s for s in specs)
    assert 0 < wrong < 50
    monkeypatch.setattr(cli.du, "dual_spec", lambda dec, spec: spec)
    code, out = run(capsys, "verify", "--q", "4", "--n", "7",
                    "--metric", "euclidean", "--limit", "50")
    assert code == 1
    (res,) = json.loads(out)["results"]
    assert res["checks"]["dual_vs_oracle"] == wrong
    assert not res["ok"]


@pytest.mark.parametrize("limit", ["5", "50"])
def test_verify_rref_calls_per_system(capsys, monkeypatch, limit):
    # one stacked RREF for the codes of the specs and of their duals (one
    # batch), one in the oracle's nullspace of the codes (already reduced,
    # so without elimination), one of the oracle's dual bases, and two
    # for the decomposition, one per block field (its matrix is inverted
    # in closed form, without eliminating [mat | I]): none per spec
    calls = []
    original = linalg.rref

    def counting(sub, A):
        calls.append(A.shape)
        return original(sub, A)

    monkeypatch.setattr(linalg, "rref", counting)
    doc = run_json(capsys, "verify", "--q", "4", "--n", "7",
                   "--metric", "hermitian", "--limit", limit)
    assert doc["results"][0]["ok"]
    assert len(calls) == 5


@pytest.mark.parametrize("metric", ["euclidean", "hermitian"])
def test_dual_mismatches_on_zero_and_full_specs(metric):
    # a batch of zero codes, of one full code, and a mixed batch
    dec = cli.build_system(cli.DIHEDRAL, 7, 4, metric)
    zero, full = zero_spec(dec), full_spec(dec)
    for batch in ([zero], [full], [zero, full, zero]):
        assert cli._dual_mismatches(dec, batch) == 0


def test_verify_block_field_beyond_dense_tables(capsys):
    # GF(4)[D_43] has a GF(16384) block field, too large for dense index
    # tables; only the alphabet's tables are ever read
    doc = run_json(capsys, "verify", "--q", "4", "--n", "43",
                   "--metric", "hermitian", "--limit", "2")
    (res,) = doc["results"]
    assert res["ok"]


def test_verify_default_matrix(capsys):
    doc = run_json(capsys, "verify", "--limit", "3")
    assert len(doc["results"]) == len(cli.VERIFY_MATRIX)
    assert all(r["ok"] for r in doc["results"])


# ---------------------------------------------------------------------------
# determinism, rendering, errors


def test_byte_identical_json(capsys):
    _, out1 = run(capsys, "css-search", "--q", "4", "--n", "7",
                  "--metric", "hermitian")
    _, out2 = run(capsys, "css-search", "--q", "4", "--n", "7",
                  "--metric", "hermitian")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("css-search", "--q", "4", "--n", "7", "--metric", "hermitian"),
    ("enumerate", "--q", "4", "--n", "7", "--metric", "hermitian",
     "--limit", "3"),
    ("decompose", "--q", "9", "--n", "10", "--metric", "hermitian"),
    ("verify", "--q", "4", "--n", "7", "--limit", "2"),
    ("css-search", "--q", "4", "--n", "7", "--metric", "hermitian",
     "--limit", "0"),
])
def test_json_render_matches_one_dump(capsys, argv):
    # results are encoded one at a time; the document must read as if
    # encoded whole
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_json_render_nulls_and_nesting():
    payload = {"config": {"limit": None, "shape": [None, [None]]},
               "results": [{"witness": None, "rows": [[None, 1], []]},
                           None, [None], {}, "a\n    null\n"],
               "timings": {}, "warnings": ["w"]}
    assert "".join(cli._render_json(payload)) == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_csv_render(capsys):
    code, out = run(capsys, "enumerate", "--q", "4", "--n", "7",
                    "--metric", "hermitian", "--limit", "2",
                    "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert "dimension" in header and "spec" in header
    assert len(rows) == 2


def test_text_render(capsys):
    code, out = run(capsys, "count", "--q", "4", "--n", "7",
                    "--metric", "hermitian", "--format", "text")
    assert code == 0
    assert "ideals: 201" in out
    assert "self_orthogonal: 20" in out


# per command, the flags it needs to run and the flags it does not read
UNREAD_FLAGS = [
    ("decompose", (), ("--isd-weight", "--seed", "--spec", "--limit")),
    ("count", (), ("--isd-weight", "--seed", "--spec", "--limit")),
    ("enumerate", (), ("--isd-weight", "--seed", "--spec")),
    ("dual", ("--spec", os.devnull), ("--isd-weight", "--seed")),
    ("classify", ("--spec", os.devnull), ("--isd-weight", "--seed")),
    ("css-search", (), ("--seed",)),
    ("verify", ("--limit", "1"), ("--isd-weight", "--spec")),
]


@pytest.mark.parametrize("argv", [
    ("count", "--q", "10", "--n", "7"),
    ("count", "--q", "4"),
    ("count", "--q", "4", "--n", "7", "--isd-sets", "0"),
    ("css-search", "--q", "11", "--n", "7", "--group", "quaternion",
     "--metric", "hermitian"),
    ("dual", "--q", "4", "--n", "7", "--metric", "hermitian"),
    ("dual", "--q", "4", "--n", "7", "--metric", "hermitian",
     "--spec", "/nonexistent-spec-file.txt"),
    ("count", "--q", "9", "--n", "6"),
    ("verify", "--limit", "-1"),
    ("css-search", "--q", "4", "--n", "7", "--metric", "hermitian",
     "--limit", "-1"),
    ("css-search", "--q", "4", "--n", "7", "--metric", "hermitian",
     "--isd-weight", "-1"),
    ("count", "--q", "4", "--n", "7", "--cache-dir", "x"),
    ("count", "--q", "4", "--n", "7", "--budget-exhaustive", "8"),
    ("verify", "--limit", "0"),
    # GF(5)[Q_3] only splits through D_6: the builder's refusal is an
    # input error
    ("count", "--q", "5", "--n", "3", "--group", "quaternion"),
    ("verify", "--q", "5", "--n", "3", "--group", "quaternion"),
    # verify checks one system (both --q and --n) or the default matrix
    ("verify", "--q", "9", "--limit", "1"),
    ("verify", "--n", "7", "--limit", "1"),
    # the default matrix fixes each system's group and metric
    ("verify", "--group", "quaternion", "--limit", "1"),
    ("verify", "--metric", "hermitian", "--limit", "1"),
    ("verify", "--group", "dihedral", "--limit", "1"),
    # information weight 0 bounds nothing
    ("css-search", "--q", "4", "--n", "7", "--metric", "hermitian",
     "--isd-weight", "0"),
    # a command refuses each flag it does not read
    *[(command, "--q", "4", "--n", "7", "--metric", "hermitian", *needed,
       flag, os.devnull if flag == "--spec" else "1")
      for command, needed, flags in UNREAD_FLAGS for flag in flags],
    # GF(2)[D_2097151] is under the field budget, but its block maps
    # would take 2^44 cells each
    ("count", "--q", "2", "--n", "2097151"),
    # linalg.matmul would expand their length 2,730 block maps to
    # 32,760^2 and 16,380^2 float64 cells: refused before any field
    ("count", "--q", "4096", "--n", "1365"),
    ("count", "--q", "64", "--n", "1365"),
])
def test_error_exits(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("css-search", "--q", "4", "--n", "7", "--metric", "hermitian",
      "--isd-weight", "0"), "--isd-weight must be at least 1"),
    (("verify", "--group", "quaternion", "--limit", "1"),
     "verify --group needs --q and --n"),
    (("verify", "--metric", "hermitian", "--limit", "1"),
     "verify --metric needs --q and --n"),
    # refused before the field tables: GF(7)[Q_1025] is 4,100 long
    (("count", "--q", "7", "--n", "1025", "--group", "quaternion"),
     "the group algebra's 4100 x 4100 block maps exceed the budget of "
     "16777216 cells"),
    (("count", "--q", "64", "--n", "1365"),
     "the group algebra's 16380 x 16380 block maps exceed the budget of "
     "16777216 cells"),
])
def test_input_error_message(capsys, argv, message):
    # one stderr line and no output, not a record that bounds nothing or
    # a check of systems the flag did not ask for
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


_REFUSED_FIRST = {
    # GF(5^6) and GF(3^9) are past the dense index tables' 4096 elements
    ("count", "--q", "15625", "--n", "2"):
        "alphabet GF(15625) is over the 4096-element alphabet limit",
    ("count", "--q", "19683", "--n", "5", "--group", "quaternion"):
        "alphabet GF(19683) is over the 4096-element alphabet limit",
    # the length 2,730 block maps of D_1365 over GF(2^12) and GF(2^6),
    # expanded by linalg.matmul, are over the cell budget
    ("count", "--q", "4096", "--n", "1365"):
        "the group algebra's 32760 x 32760 block maps exceed the budget of "
        "16777216 cells",
    ("count", "--q", "64", "--n", "1365"):
        "the group algebra's 16380 x 16380 block maps exceed the budget of "
        "16777216 cells",
}


@pytest.mark.parametrize("argv", list(_REFUSED_FIRST))
def test_alphabet_past_the_tables_is_refused_first(capsys, monkeypatch, argv):
    # both builders refuse these systems before any field table is built,
    # each with its one message
    def no_field(p, m):
        raise AssertionError(f"GF({p}^{m}) built")

    monkeypatch.setattr(da, "build_field", no_field)
    monkeypatch.setattr(qa, "build_field", no_field)
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {_REFUSED_FIRST[argv]}"]


def test_internal_error_exit(capsys, monkeypatch):
    # a broken invariant is neither an input error (2) nor a verify
    # mismatch (1): one stderr line, no output
    monkeypatch.setattr(linalg, "in_row_space",
                        lambda sub, r, piv, V: np.zeros(len(V), dtype=bool))
    code = cli.main(["css-search", "--q", "4", "--n", "7",
                     "--metric", "hermitian", "--limit", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: permutation does not preserve the code"]


def test_bad_witness_exit(capsys, monkeypatch):
    # a distance witness that fails its re-check is an internal error too
    take = wq._Search._take

    def bad_take(search, words, weights):
        take(search, words, weights)
        search.wit_any = (1,) * search.n

    monkeypatch.setattr(wq._Search, "_take", bad_take)
    code = cli.main(["css-search", "--q", "4", "--n", "7",
                     "--metric", "hermitian", "--limit", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: distance witness has the wrong weight"]


def _corrupt_last_block(monkeypatch, corrupt):
    """Make every dihedral build hand its last block's slots, and the master
    field, to ``corrupt`` before assembly."""
    original = da._assemble

    def corrupted(group, n, mode, q, alphabet, blocks, a_order):
        corrupt(alphabet.master, blocks[-1].slots)
        return original(group, n, mode, q, alphabet, blocks, a_order)

    monkeypatch.setattr(da, "_assemble", corrupted)


def _copy_slot(F, slots):
    # slot 1 of a free block takes slot 0's images and root
    assert len(slots) == 2 and slots[0].basis is slots[1].basis
    for attr in ("gen_a", "gen_b", "root"):
        setattr(slots[1], attr, getattr(slots[0], attr))


def test_corrupted_block_map_exit(capsys, monkeypatch):
    # both slots of a free block on one root: each slot passes the
    # relations guard, but the two slots' images coincide, so mat is
    # singular.  The closed-form inverse trusts the blocks; the check that
    # mat times it is the identity fails, a broken invariant rather than
    # a wrong inverse
    _corrupt_last_block(monkeypatch, _copy_slot)
    with pytest.raises(AssertionError, match="not the identity"):
        da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
    code = cli.main(["count", "--q", "9", "--n", "16", "--metric", "hermitian"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: the block map is not invertible: mat times its "
        "Fourier inverse is not the identity"]


def _b_to_one(F, slots):
    slots[0].gen_b = da.slot_one(slots[0])


def _root_to_one(F, slots):
    slots[0].root = F.one


def _entry_off_field(F, slots):
    # b -> [[0, 1], [g, 0]], g generating GF(81), in a GF(9) slot
    assert slots[0].field.q == 9
    slots[0].gen_b = (ZERO, F.one, F.subfield(81).gen, ZERO)


@pytest.mark.parametrize("corrupt,message", [
    (_b_to_one, "slot 7's generator images break the group relations"),
    (_root_to_one, "slot 7's root is not an eigenvalue of its rotation image"),
    (_entry_off_field, "slot 7's generator images leave its field GF(9)")])
def test_relations_guard_exit(capsys, monkeypatch, corrupt, message):
    # one corruption of slot 7, the first slot of GF(9)[D_16]'s last
    # (free, GF(9)) block, at a time: each is refused by the guard it
    # breaks, before the block map is made
    _corrupt_last_block(monkeypatch, corrupt)
    code = cli.main(["count", "--q", "9", "--n", "16", "--metric", "hermitian"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"internal error: {message}"]


@pytest.mark.parametrize("status,exit_code", [(wq.EXACT, 3),
                                              (wq.UPPER_BOUND, 0)])
def test_singleton_guard_exit(capsys, monkeypatch, status, exit_code):
    # every search forged to d = 9 on the length 14: [[14, k, 9]] breaks
    # k <= n - 2d + 2 for every k, but only an exact record claims it
    def forged(sub, G, *exclude, **kwargs):
        searches = len(G[1]) * (1 + len(exclude))   # floors, then outside
        return (wq.DistanceResult(9, status),) * searches

    monkeypatch.setattr(wq, "min_distance_isd", forged)
    monkeypatch.setattr(wq, "min_distance_isd_excluding", forged)
    code = cli.main(["css-search", "--q", "4", "--n", "7",
                     "--metric", "hermitian"])
    captured = capsys.readouterr()
    assert code == exit_code
    if exit_code:
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "internal error: [[14, 14, 9]] breaks the quantum Singleton bound"]


@pytest.mark.parametrize("metric", ["euclidean", "hermitian"])
def test_selforth_witness_catches_a_wrong_flag(capsys, monkeypatch, metric):
    # with every spec taken for self-orthogonal, the one stacked oracle
    # witness of a batch meets the codes that are not, and says so
    monkeypatch.setattr(cli.ic, "spec_contains", lambda a, b: True)
    code = cli.main(["enumerate", "--q", "4", "--n", "7",
                     "--metric", metric])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: self-orthogonality witness failed"]


def test_bad_spec_token_reports_error(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("b0:bogus; b1:zero\n")
    code, _ = run(capsys, "dual", "--q", "4", "--n", "7",
                  "--metric", "hermitian", "--spec", str(path))
    assert code == 2


@pytest.mark.parametrize("argv,hint", [
    # without --q and --n no rerun could succeed, so that is reported first
    (("verify", "--group", "quaternion", "--metric", "hermitian"),
     "verify --group needs --q and --n"),
    (("count", "--q", "9", "--n", "7", "--group", "quaternion",
      "--metric", "hermitian"), "rerun with --group dihedral --n 14"),
])
def test_quaternion_hermitian_hint(capsys, argv, hint):
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err.rstrip().endswith(hint)


def test_verify_block_field_above_two_to_the_sixteen(capsys):
    # GF(4)[D_19] has 2x2 slots over GF(2^18): its coordinates come from
    # one change of basis, not from a table over the block field
    doc = run_json(capsys, "verify", "--q", "4", "--n", "19",
                   "--metric", "hermitian", "--limit", "2")
    assert [r["ok"] for r in doc["results"]] == [True]
