"""Re-record the benchmark's golden outputs from the current sources.

    python3 perfbench/golden.py

Writes ``perfbench/goldens/{census-d10,css-d16,verify-matrix}.json.gz``:
the ``results`` lists of the census, of the fixed css-d16 sample and of
``verify --seed 0``.  Re-record only when a change to the program is meant
to change these outputs, and say so in the change.  certify-c6's goldens
are the constants in ``c6.py``.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from groupcodes import dihedral_algebra as da  # noqa: E402
from groupcodes import ideals_codes as ic  # noqa: E402

import workloads  # noqa: E402


def results(argv: list[str]) -> list:
    rc, out = workloads.run_cli(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return json.loads(out)["results"]


def write(name: str, value) -> None:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.GOLDEN_DIR / f"{name}.json.gz"
    # mtime=0 keeps the file byte-identical when the content is
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(value, sort_keys=True).encode())
    print(f"wrote {path} ({len(value)} records)")


def main() -> int:
    write("census-d10", results(workloads.CENSUS_ARGV))

    dec = da.build_dihedral_decomposition(16, 9, da.HERMITIAN)
    specs = workloads.sample_selforth(dec, workloads.CSS_SAMPLE_SIZE,
                                      workloads.CSS_SAMPLE_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        spec_file = Path(tmp) / "css-d16.spec"
        spec_file.write_text("".join(ic.format_spec(dec, s) + "\n"
                                     for s in specs))
        write("css-d16", results(["css-search", "--q", "9", "--n", "16",
                                  "--metric", "hermitian",
                                  "--spec", str(spec_file)]))

    write("verify-matrix", results(
        ["verify", "--seed", str(workloads.GOLDEN_VERIFY_SEED)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
