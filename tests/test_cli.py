"""End-to-end checks of the command-line surface."""

import json

import pytest

from groupcodes import cli, linalg
from groupcodes import ideals_codes as ic
from groupcodes import weights_quantum as wq


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
    # one ideal_to_code for the spec and one for its dual, per record; the
    # witness re-check reuses the dual code built for the distance search
    calls = []
    original = ic.ideal_to_code

    def counting(dec, spec):
        calls.append(spec)
        return original(dec, spec)

    monkeypatch.setattr(ic, "ideal_to_code", counting)
    monkeypatch.setattr(wq, "ideal_to_code", counting)
    doc = run_json(capsys, "css-search", "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    assert len(doc["results"]) == 20
    assert len(calls) == 2 * len(doc["results"])


@pytest.mark.parametrize("command,records,rrefs", [
    # five per record (its two codes, the search's code, its information
    # set, the witness), one per excluded subcode (10 records), one for
    # the decomposition
    ("css-search", 20, 111),
    # one per record (its code), three per nonzero self-orthogonal record
    # (19, the witness), one for the decomposition
    ("enumerate", 201, 259),
])
def test_rref_calls_per_run(capsys, monkeypatch, command, records, rrefs):
    calls = []
    original = linalg.rref

    def counting(sub, A):
        calls.append(A.shape)
        return original(sub, A)

    monkeypatch.setattr(linalg, "rref", counting)
    doc = run_json(capsys, command, "--q", "4", "--n", "7",
                   "--metric", "hermitian")
    assert len(doc["results"]) == records
    assert len(calls) == rrefs


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


def test_css_search_isd_weight_cap_degrades_status(capsys):
    doc = run_json(capsys, "css-search", "--q", "9", "--n", "10",
                   "--metric", "hermitian", "--limit", "3",
                   "--isd-weight", "0")
    assert all(r["distance"] is None for r in doc["results"])
    assert all(r["distance_status"] == "upper_bound"
               for r in doc["results"])


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
])
def test_error_exits(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


def test_internal_error_exit(capsys, monkeypatch):
    # a broken invariant is neither an input error (2) nor a verify
    # mismatch (1): one stderr line, no output
    monkeypatch.setattr(linalg, "in_row_space", lambda sub, r, piv, v: False)
    code = cli.main(["css-search", "--q", "4", "--n", "7",
                     "--metric", "hermitian", "--limit", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: permutation does not preserve the code"]


def test_bad_spec_token_reports_error(capsys, tmp_path):
    path = tmp_path / "specs.txt"
    path.write_text("b0:bogus; b1:zero\n")
    code, _ = run(capsys, "dual", "--q", "4", "--n", "7",
                  "--metric", "hermitian", "--spec", str(path))
    assert code == 2
