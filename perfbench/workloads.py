"""The benchmark's four workloads.

Each workload has four phases, which ``run.py`` times separately:

* ``make_inputs(seed)`` derives the inputs from the seed (untimed);
* ``build()`` constructs every decomposition the workload uses; timed
  after the field caches are cleared, it is ``setup_s``;
* ``warm_up()`` runs a small discarded piece of the same work;
* ``run_pass(i)`` is one timed pass.  It returns a ``Pass`` whose output is
  checked by ``check(i, pass_)`` outside the timed phase.

The CLI workloads call ``groupcodes.cli.main(argv)`` in-process with its
standard output captured.  ``certify-c6`` has no CLI surface and calls the
distance functions directly.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from groupcodes import cli, fields, linalg
from groupcodes import dihedral_algebra as da
from groupcodes import duality as du
from groupcodes import ideals_codes as ic
from groupcodes import quaternion_algebra as qa
from groupcodes import weights_quantum as wq

import c6

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# the lru-cache object itself: the tracer replaces the module binding with a
# wrapper that has no cache_clear
_BUILD_FIELD = fields.build_field


def clear_field_caches() -> None:
    """Drop every cached field, and with them their Subfield tables."""
    _BUILD_FIELD.cache_clear()


@dataclass
class Pass:
    items: int              # items the pass should complete
    output: str             # captured program output, compared when traced
    rc: int | None = 0      # exit code; None when the call raised
    detail: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """``cli.main(argv)`` with stdout captured; rc None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # an item lost to an exception counts as failed
        traceback.print_exc(file=sys.stderr)
        return None, out.getvalue()
    if rc:
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue()


def load_golden(name: str):
    with gzip.open(GOLDEN_DIR / f"{name}.json.gz", "rt") as fh:
        return json.load(fh)


def _records_by_spec(results: list) -> dict:
    return {r["spec"]: r for r in results}


class Workload:
    name = ""

    def make_inputs(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, i: int) -> Pass:
        raise NotImplementedError

    def check(self, i: int, p: Pass) -> int:
        """Failed items of a pass."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# css-search workloads


CENSUS_ARGV = ["css-search", "--q", "9", "--n", "10", "--metric", "hermitian"]


class CensusD10(Workload):
    """Every hermitian self-orthogonal ideal of GF(9)[D_10]; seed-free."""

    name = "census-d10"

    def make_inputs(self, seed, workdir):
        super().make_inputs(seed, workdir)
        self.golden = _records_by_spec(load_golden(self.name))
        dec = da.build_dihedral_decomposition(10, 9, da.HERMITIAN)
        self.expected = du.count_selforth(dec)
        if self.expected != len(self.golden):
            raise RuntimeError("golden census size disagrees with the "
                               "closed-form count")

    def build(self):
        da.build_dihedral_decomposition(10, 9, da.HERMITIAN)

    def warm_up(self):
        run_cli(CENSUS_ARGV + ["--limit", "10"])

    def run_pass(self, i):
        rc, out = run_cli(CENSUS_ARGV)
        return Pass(self.expected, out, rc)

    def check(self, i, p):
        if p.rc != 0:
            return p.items
        results = json.loads(p.output)["results"]
        got = _records_by_spec(results)
        failed = sum(got.get(spec) != rec for spec, rec in self.golden.items())
        # duplicate records, and records for specs outside the census
        failed += len(results) - len(got) + len(set(got) - set(self.golden))
        return min(failed, p.items)

    def sizes(self):
        return {"system": "GF(9)[D_10] hermitian", "length": 20,
                "specs": self.expected}


# A fixed uniform sample of the 41,085 hermitian self-orthogonal ideals of
# GF(9)[D_16].  Per-spec cost is heavy-tailed (coefficient of variation
# about 2), so a sample redrawn per seed would move throughput by about a
# quarter between seeds; the run seed only shuffles the order of the file.
CSS_SAMPLE_SEED = 20251207
CSS_SAMPLE_SIZE = 80


def sample_selforth(dec, size: int, seed: int) -> list[tuple]:
    """Distinct specs, each block's option drawn uniformly and independently
    (which is uniform over the self-orthogonal census)."""
    options = [du.selforth_block_options(dec, b) for b in dec.blocks]
    total = 1
    for opts in options:
        total *= len(opts)
    if size > total:
        raise ValueError(f"sample of {size} exceeds the census of {total}")
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < size:
        spec = tuple(x for opts in options
                     for x in opts[int(rng.integers(len(opts)))])
        if spec not in seen:
            seen.add(spec)
            out.append(spec)
    return out


class CssD16(Workload):
    """css-search on a fixed sample of GF(9)[D_16] specs."""

    name = "css-d16"

    def make_inputs(self, seed, workdir):
        super().make_inputs(seed, workdir)
        dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
        specs = sample_selforth(dec, CSS_SAMPLE_SIZE, CSS_SAMPLE_SEED)
        self.census = du.count_selforth(dec)
        self.length = dec.length
        self.dims = {ic.format_spec(dec, s): ic.ideal_dimension(dec, s)
                     for s in specs}
        order = np.random.default_rng(seed).permutation(len(specs))
        lines = [ic.format_spec(dec, specs[j]) for j in order]
        self.spec_file = workdir / f"css-d16-seed{seed}.spec"
        self.spec_file.write_text("\n".join(lines) + "\n")
        self.golden = _records_by_spec(load_golden(self.name))
        self.argv = ["css-search", "--q", "9", "--n", "16", "--metric",
                     "hermitian", "--spec", str(self.spec_file)]

    def build(self):
        da.build_dihedral_decomposition(16, 9, da.HERMITIAN)

    def warm_up(self):
        run_cli(["css-search", "--q", "9", "--n", "16", "--metric",
                 "hermitian", "--limit", "3"])

    def run_pass(self, i):
        rc, out = run_cli(self.argv)
        return Pass(len(self.dims), out, rc)

    def _record_ok(self, rec) -> bool:
        golden = self.golden.get(rec["spec"])
        if golden is not None and golden != rec:
            return False
        dim = self.dims[rec["spec"]]
        return (rec["length"] == self.length
                and rec["logical_dim"] == self.length - 2 * dim
                and rec["distance"] is not None and rec["floor"] is not None
                and rec["distance"] >= rec["floor"]
                and rec["distance_status"] in (wq.EXACT, wq.UPPER_BOUND))

    def check(self, i, p):
        if p.rc != 0:
            return p.items
        results = json.loads(p.output)["results"]
        got = _records_by_spec(results)
        if len(results) != len(got) or set(got) != set(self.dims):
            return p.items
        return sum(not self._record_ok(r) for r in results)

    def sizes(self):
        return {"system": "GF(9)[D_16] hermitian", "length": self.length,
                "specs": len(self.dims), "census": self.census,
                "sample_seed": CSS_SAMPLE_SEED}


# ---------------------------------------------------------------------------
# verify


GOLDEN_VERIFY_SEED = 0


class VerifyMatrix(Workload):
    """``verify`` on the default 7-system matrix, one seed per pass."""

    name = "verify-matrix"

    def make_inputs(self, seed, workdir):
        super().make_inputs(seed, workdir)
        self.golden = load_golden(self.name)
        self.items = 2 * cli.DEFAULT_VERIFY_SPECS * len(cli.VERIFY_MATRIX)

    def pass_seed(self, i: int) -> int:
        return self.seed * 10_000 + i

    def build(self):
        for group, n, Q, metric in cli.VERIFY_MATRIX:
            if group == cli.QUATERNION:
                qa.build_quaternion_decomposition(n, Q)
            else:
                da.build_dihedral_decomposition(n, Q, metric)

    def warm_up(self):
        run_cli(["verify", "--q", "9", "--n", "10", "--metric", "hermitian",
                 "--limit", "2", "--seed", str(self.pass_seed(9_999))])

    def run_pass(self, i):
        rc, out = run_cli(["verify", "--seed", str(self.pass_seed(i))])
        return Pass(self.items, out, rc)

    def check(self, i, p):
        if p.rc is None or p.rc > 1:
            return p.items
        results = json.loads(p.output)["results"]
        if len(results) != len(cli.VERIFY_MATRIX):
            return p.items
        per_system = p.items // len(results)
        failed = 0
        for k, r in enumerate(results):
            checks = r["checks"]
            bad = checks["dual_vs_oracle"] + checks["rho_multiplicative"]
            if checks.get("census_formula_vs_enumeration", 0) or not r["ok"]:
                bad = max(bad, 1)
            if (self.pass_seed(i) == GOLDEN_VERIFY_SEED
                    and r != self.golden[k]):
                bad = per_system
            failed += min(bad, per_system)
        return failed

    def sizes(self):
        return {"systems": len(cli.VERIFY_MATRIX),
                "specs_per_system": cli.DEFAULT_VERIFY_SPECS,
                "items_per_pass": self.items}


# ---------------------------------------------------------------------------
# criterion-6 certification


class CertifyC6(Workload):
    """ISD on codes A and B, then the exhaustive scan of B; fixed inputs."""

    name = "certify-c6"
    budget = 6 * 10 ** 6

    def make_inputs(self, seed, workdir):
        super().make_inputs(seed, workdir)
        dec, xi = c6.build_decompositions()
        rows_a, rows_b = c6.reference_codes(dec, xi)
        self.k_a, self.k_b = rows_a.shape[0], rows_b.shape[0]
        q = dec.alphabet.q
        self.items = (q ** self.k_b - 1) // (q - 1)   # projective messages

    def build(self):
        c6.build_decompositions()

    def warm_up(self):
        dec, xi = c6.build_decompositions()
        rows_a, rows_b = c6.reference_codes(dec, xi)
        auto = wq.code_automorphism(dec)
        wq.min_distance_isd(dec.alphabet, rows_a, automorphism=auto)
        wq.min_distance_isd(dec.alphabet, rows_b, automorphism=auto)
        wq.min_distance_exhaustive(dec.alphabet, rows_b[:3])

    def run_pass(self, i):
        dec, xi = c6.build_decompositions()
        rows_a, rows_b = c6.reference_codes(dec, xi)
        sub = dec.alphabet
        auto = wq.code_automorphism(dec)
        isd_a = wq.min_distance_isd(sub, rows_a, automorphism=auto)
        isd_b = wq.min_distance_isd(sub, rows_b, automorphism=auto)
        exh_b = wq.min_distance_exhaustive(sub, rows_b, budget=self.budget)
        results = {"isd_a": isd_a, "isd_b": isd_b, "exhaustive_b": exh_b}
        out = json.dumps({k: [r.value, r.status, r.witness]
                          for k, r in results.items()}, sort_keys=True)
        return Pass(self.items, out, 0,
                    {"sub": sub, "rows": (rows_a, rows_b, rows_b),
                     "results": results})

    def check(self, i, p):
        results, rows, sub = p.detail["results"], p.detail["rows"], p.detail["sub"]
        ok = (results["isd_a"].value == c6.GOLDEN_A
              and results["isd_b"].value == c6.GOLDEN_B
              and results["exhaustive_b"].value == results["isd_b"].value)
        for r, G in zip(results.values(), rows):
            if r.witness is None:
                return p.items
            wit = np.array(r.witness, dtype=G.dtype)
            ok = ok and (r.status == wq.EXACT
                         and int(np.count_nonzero(wit)) == r.value
                         and linalg.row_space_contains(sub, G, wit[None, :]))
        return 0 if ok else p.items

    def sizes(self):
        return {"system": "GF(9)[D_16] hermitian, pinned roots", "length": 32,
                "k": {"A": self.k_a, "B": self.k_b},
                "projective_messages": self.items}


WORKLOADS = {w.name: w for w in (CensusD10, CssD16, CertifyC6, VerifyMatrix)}
