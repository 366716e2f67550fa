"""Self-tests of the benchmark itself (not of groupcodes).

    python3 perfbench/selftest.py

* The seeded spec sampler and the css-d16 spec file are deterministic.
* On every workload, a traced run (``--trace 1``) is correct, its traced
  program output is byte-identical to the untraced output, and every layer
  listed for the workload below records at least one call, so a binding
  site the tracer missed fails here.

Takes about three minutes: each traced run makes one untraced and one
traced pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from groupcodes import dihedral_algebra as da  # noqa: E402
from groupcodes import duality as du  # noqa: E402

import workloads  # noqa: E402

COMMON = ("fields.build_field", "fields.subfield", "polyfactor.factor",
          "dihedral_algebra.build", "dihedral_algebra.rho_inv",
          "linalg.matmul", "linalg.rref", "ideals_codes.ideal_to_code")
CSS = COMMON + ("cli.main", "duality.dual_spec", "duality.is_self_orthogonal",
                "weights_quantum.css_hermitian", "weights_quantum.isd",
                "weights_quantum.code_automorphism", "oracle.mul_table")

# layers each workload must reach (the layers whose metrics it should move)
EXPECTED = {
    "census-d10": CSS + ("duality.enumerate_selforth",),
    "css-d16": CSS + ("linalg.in_row_space",),
    "certify-c6": COMMON + ("weights_quantum.isd", "weights_quantum.exhaustive",
                            "weights_quantum.code_automorphism",
                            "oracle.mul_table"),
    "verify-matrix": COMMON + ("cli.main", "quaternion_algebra.build",
                               "dihedral_algebra.rho", "linalg.nullspace",
                               "duality.dual_spec",
                               "duality.enumerate_selforth",
                               "oracle.dual_basis", "oracle.group_mul",
                               "oracle.mul_table"),
}


def check_sampler(errors: list) -> None:
    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
    a = workloads.sample_selforth(dec, 40, 7)
    if a != workloads.sample_selforth(dec, 40, 7):
        errors.append("sampler: same seed gave different samples")
    if a == workloads.sample_selforth(dec, 40, 8):
        errors.append("sampler: different seeds gave the same sample")
    if len(set(a)) != len(a):
        errors.append("sampler: repeated spec")
    if not all(du.is_self_orthogonal(dec, s)[0] for s in a):
        errors.append("sampler: spec that is not self-orthogonal")
    with tempfile.TemporaryDirectory() as tmp:
        texts = []
        for _ in range(2):
            w = workloads.CssD16()
            w.make_inputs(3, Path(tmp))
            texts.append(w.spec_file.read_text())
        if texts[0] != texts[1]:
            errors.append("css-d16: same seed gave different spec files")


def check_traced(name: str, errors: list) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{name}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines
                             if line.startswith("record "))[len("record "):])
    if not (result["correct"] and result["failed"] == 0):
        errors.append(f"{name}: traced run not correct: {result['failed']} "
                      f"of {result['attempted']} items failed")
    if not record["traced_identical"]:
        errors.append(f"{name}: traced output differs from untraced output")
    calls = record["span_calls"]
    for layer in EXPECTED[name]:
        if calls.get(layer, 0) < 1:
            errors.append(f"{name}: layer {layer} recorded no call")
    print(f"{name}: checked {len(EXPECTED[name])} layers", flush=True)


def main() -> int:
    errors: list[str] = []
    check_sampler(errors)
    for name in EXPECTED:
        check_traced(name, errors)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
