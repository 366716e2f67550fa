"""Batch command-line surface for group-algebra codes.

Subcommands decompose dihedral/quaternion group algebras over finite
fields, enumerate and dualise their ideal codes, classify specs from a
file, count self-orthogonal codes, search for CSS stabilizer codes, and
cross-check the closed-form machinery against the dense oracles.

Output is a single JSON document ``{config, results, timings, warnings}``
(or a CSV/text rendering of the same results).  Runs are deterministic:
the same configuration and seed produce byte-identical JSON.  Factor
coefficients and generator-image matrix entries are printed as powers
``g^k`` of the master-field generator (``0`` for zero); row labels inside
ideal specs are powers of the owning slot field's generator, matching the
serialization used by the spec parser.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import dihedral_algebra as da
from . import duality as du
from . import ideals_codes as ic
from . import linalg
from . import oracle
from . import quaternion_algebra as qa
from . import weights_quantum as wq
from .fields import ZERO, split_prime_power

DIHEDRAL = "dihedral"
QUATERNION = "quaternion"
DEFAULT_VERIFY_SPECS = 50

# systems exercised by `verify` when none is given on the command line
VERIFY_MATRIX = (
    (DIHEDRAL, 16, 9, da.HERMITIAN),
    (DIHEDRAL, 16, 9, da.EUCLIDEAN),
    (DIHEDRAL, 7, 4, da.HERMITIAN),
    (DIHEDRAL, 7, 4, da.EUCLIDEAN),
    (DIHEDRAL, 3, 25, da.HERMITIAN),
    (DIHEDRAL, 10, 9, da.HERMITIAN),
    (QUATERNION, 7, 11, da.EUCLIDEAN),
)


class CliError(ValueError):
    """Bad command-line input; message is shown to the user."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    q: int | None
    n: int | None
    group: str
    metric: str
    isd_weight: int | None
    seed: int
    format: str
    spec: str | None
    limit: int | None


# ---------------------------------------------------------------------------
# element / spec formatting helpers


def _fmt_master(x: int) -> str:
    return "0" if x == ZERO else f"g^{x}"


def _fmt_slot_value(slot, value) -> list:
    """Slot value as a JSON-friendly nested list of element strings."""
    if slot.kind == da.FIELD_SLOT:
        return [_fmt_master(value)]
    if slot.kind == da.C2_SLOT:
        return [_fmt_master(value[0]), _fmt_master(value[1])]
    a, b, c, d = value
    return [[_fmt_master(a), _fmt_master(b)], [_fmt_master(c), _fmt_master(d)]]


def _generator_images(dec) -> dict:
    """Slotwise images of the group generators a and b."""
    out = {}
    for name, idx in (("a", 1), ("b", dec.a_order)):
        vec = np.zeros(dec.length, dtype=np.int32)
        vec[idx] = 1  # alphabet index of one
        values = dec.rho(vec)
        out[name] = [_fmt_slot_value(s, v)
                     for s, v in zip(dec.slots(), values)]
    return out


_J_CLASS = {da.FIELD_PAIR: "J0", da.C2_BLOCK: "J0", da.RECIP_FIXED: "J1",
            da.CONJ_FIXED: "J2", da.CROSS_FIXED: "J3", da.FREE: "J4"}


def _summand_str(slot) -> str:
    """Human-readable shape of one simple (or C_2) summand."""
    if slot.kind == da.C2_SLOT:
        return f"F_{slot.field.q}[C_2]"
    if slot.ncomp == 4:
        return f"M_2(F_{slot.field.q})"
    return f"F_{slot.field.q}"


def _factor_str(dec, factor) -> str:
    """Monic factor as a readable polynomial in x over the code alphabet."""
    terms = []
    for e in range(factor.degree, -1, -1):
        c = factor.coeffs[e]
        if c == ZERO:
            continue
        if e == factor.degree:
            coef = ""
        elif c == dec.F.one:
            coef = "1" if e == 0 else ""
        else:
            coef = _fmt_master(c)
        if e == 0:
            terms.append(coef or "1")
        elif e == 1:
            terms.append(f"{coef}x")
        else:
            terms.append(f"{coef}x^{e}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# configuration and system construction


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="groupcodes",
        description="group-algebra codes: decomposition, duality, CSS search")
    sub = parser.add_subparsers(dest="command", required=True)
    names = ("decompose", "dual", "classify", "count", "enumerate",
             "css-search", "verify")
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--q", type=int, default=None,
                       help="code alphabet size (prime power; hermitian "
                            "metric pairs GF(q) over its square root)")
        p.add_argument("--n", type=int, default=None,
                       help="rotation order (dihedral D_n) or half-order "
                            "(quaternion Q_n)")
        p.add_argument("--group", choices=(DIHEDRAL, QUATERNION),
                       default=DIHEDRAL)
        p.add_argument("--metric", choices=(da.EUCLIDEAN, da.HERMITIAN),
                       default=da.EUCLIDEAN)
        p.add_argument("--isd-weight", type=int, default=None,
                       help="stop distance enumeration after this "
                            "information weight (status degrades to "
                            "upper_bound when the bound is not closed)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--spec", default=None,
                       help="file of spec serializations, one per line")
        p.add_argument("--limit", type=int, default=None,
                       help="evaluate at most this many specs")
    ns = parser.parse_args(argv)
    return RunConfig(command=ns.command, q=ns.q, n=ns.n, group=ns.group,
                     metric=ns.metric, isd_weight=ns.isd_weight,
                     seed=ns.seed, format=ns.format, spec=ns.spec,
                     limit=ns.limit)


def _validate(cfg: RunConfig) -> None:
    if cfg.command != "verify" and (cfg.q is None or cfg.n is None):
        raise CliError(f"{cfg.command} needs --q and --n")
    if cfg.q is not None:
        try:
            split_prime_power(cfg.q)
        except ValueError as e:
            raise CliError(str(e)) from None
    for flag, value in (("--limit", cfg.limit),
                        ("--isd-weight", cfg.isd_weight)):
        if value is not None and value < 0:
            raise CliError(f"{flag} must not be negative")
    if cfg.command == "verify" and cfg.limit == 0:
        raise CliError("verify --limit 0 would check no spec")
    if cfg.group == QUATERNION and cfg.metric == da.HERMITIAN:
        raise CliError(
            "hermitian duality of a quaternion algebra is handled through "
            f"the isomorphic dihedral algebra: rerun with --group dihedral "
            f"--n {2 * (cfg.n or 0)}")


def build_system(cfg: RunConfig):
    """Decomposition for the configured system."""
    if cfg.group == QUATERNION:
        try:
            return qa.build_quaternion_decomposition(cfg.n, cfg.q)
        except qa.DelegateToDihedral as e:
            raise CliError(str(e)) from None
    return da.build_dihedral_decomposition(cfg.n, cfg.q, cfg.metric)


def _load_specs(cfg: RunConfig, dec) -> list:
    if cfg.spec is None:
        raise CliError(f"{cfg.command} needs --spec <file>")
    specs = []
    with open(cfg.spec) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                specs.append(ic.parse_spec(dec, line))
    return specs


# ---------------------------------------------------------------------------
# emission-time re-validation


def _selforth_flags(dec, spec, rows) -> dict:
    ok, _ = du.is_self_orthogonal(dec, spec)
    flags = {"self_orthogonal": ok}
    if ok and rows.shape[0]:
        # independent witness through the dense nullspace oracle
        if dec.mode == da.HERMITIAN:
            dual = oracle.hermitian_dual_basis(dec.alphabet, rows, dec.q)
        else:
            dual = oracle.euclid_dual_basis(dec.alphabet, rows)
        if not linalg.row_space_contains(dec.alphabet, dual, rows):
            raise AssertionError("self-orthogonality witness failed")
    dual_spec = du.dual_spec(dec, spec)
    flags["self_dual"] = dual_spec == spec
    flags["dual_dim"] = ic.ideal_dimension(dec, dual_spec)
    return flags


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(cfg: RunConfig, warnings: list) -> list:
    dec = build_system(cfg)
    blocks = []
    for i, blk in enumerate(dec.blocks):
        entry = {
            "index": i,
            "kind": blk.kind,
            "summands": [_summand_str(s) for s in blk.slots],
            "slot_fields": [s.field.q for s in blk.slots],
            "factors": [_factor_str(dec, f) for f in blk.factors],
        }
        if cfg.group == DIHEDRAL and dec.mode == da.HERMITIAN:
            entry["j_class"] = _J_CLASS[blk.kind]
        if cfg.group == QUATERNION:
            entry["side"] = "B" if blk.kind in qa.B_SIDE_KINDS else "A"
        blocks.append(entry)
    summary = {
        "length": dec.length,
        "alphabet": dec.Q,
        "blocks": blocks,
        "generator_images": _generator_images(dec),
        "ideal_count": ic.spec_count(dec),
    }
    if cfg.group == QUATERNION:
        kinds = [b.kind for b in dec.blocks]
        summary["shape_counts"] = {
            "r": kinds.count(da.SELFREC),
            "s": kinds.count(da.RECIP_PAIR),
            "t": kinds.count(qa.B_SELFREC_SPLIT) + kinds.count(qa.B_SELFREC_SKEW),
            "k": kinds.count(qa.B_PAIR),
        }
    elif dec.mode == da.HERMITIAN:
        summary["j_sizes"] = {
            label: sum(1 for b in dec.blocks if _J_CLASS[b.kind] == label)
            for label in ("J0", "J1", "J2", "J3", "J4")}
    return [summary]


def cmd_count(cfg: RunConfig, warnings: list) -> list:
    dec = build_system(cfg)
    return [{
        "ideals": ic.spec_count(dec),
        "self_orthogonal": du.count_selforth(dec),
        "metric": cfg.metric,
    }]


def _spec_record(dec, spec) -> tuple:
    rows = ic.ideal_to_code(dec, spec)
    record = {
        "spec": ic.format_spec(dec, spec),
        "length": dec.length,
        "dimension": rows.shape[0],
    }
    record.update(_selforth_flags(dec, spec, rows))
    return record, rows


def cmd_enumerate(cfg: RunConfig, warnings: list) -> list:
    dec = build_system(cfg)
    results = []
    # with an explicit --limit the stream stops early, so the safety budget
    # on the total ideal count is unnecessary
    budget = None if cfg.limit is not None else ic.DEFAULT_ENUM_BUDGET
    for spec in ic.enumerate_specs(dec, budget=budget):
        if cfg.limit is not None and len(results) >= cfg.limit:
            warnings.append(f"enumeration truncated at --limit {cfg.limit}")
            break
        results.append(_spec_record(dec, spec)[0])
    return results


def cmd_dual(cfg: RunConfig, warnings: list) -> list:
    dec = build_system(cfg)
    results = []
    for spec in _load_specs(cfg, dec):
        record, _ = _spec_record(dec, spec)
        dual = du.dual_spec(dec, spec)
        record["dual_spec"] = ic.format_spec(dec, dual)
        if du.dual_spec(dec, dual) != spec:
            raise AssertionError("dual involution failed on this spec")
        results.append(record)
    return results


def cmd_classify(cfg: RunConfig, warnings: list) -> list:
    dec = build_system(cfg)
    results = []
    for spec in _load_specs(cfg, dec):
        record, rows = _spec_record(dec, spec)
        dual_rows = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
        stacked = np.vstack([rows, dual_rows])
        hull_dim = (rows.shape[0] + dual_rows.shape[0]
                    - linalg.rank(dec.alphabet, stacked))
        record["hull_dimension"] = hull_dim
        record["lcd"] = hull_dim == 0
        segments = record["spec"].split("; ")
        record["block_labels"] = [
            {"kind": blk.kind, "label": segments[i]}
            for i, blk in enumerate(dec.blocks)]
        results.append(record)
    return results


def cmd_css_search(cfg: RunConfig, warnings: list) -> list:
    if cfg.metric != da.HERMITIAN:
        raise CliError("css-search uses the hermitian metric; "
                       "pass --metric hermitian")
    dec = build_system(cfg)
    if cfg.spec is not None:
        specs = _load_specs(cfg, dec)
    else:
        specs = []
        for spec in du.enumerate_selforth(dec):
            if cfg.limit is not None and len(specs) >= cfg.limit:
                warnings.append(
                    f"css search truncated at --limit {cfg.limit}")
                break
            specs.append(spec)
    results = []
    for spec in specs:
        try:
            rec = wq.css_hermitian(dec, spec, max_weight=cfg.isd_weight)
        except du.NotSelfOrthogonalError as e:
            warnings.append(f"skipped {ic.format_spec(dec, spec)}: {e}")
            continue
        results.append({
            "spec": ic.format_spec(dec, spec),
            "length": rec.length,
            "logical_dim": rec.logical_dim,
            "base_field": rec.base_field,
            "distance": rec.distance.value,
            "distance_status": rec.distance.status,
            "distance_provenance": "information-set enumeration with "
                                   "group-translation orbit bound",
            "floor": rec.floor.value,
            "floor_status": rec.floor.status,
            "self_dual_classical": rec.self_dual,
        })
    results.sort(key=lambda r: (-r["logical_dim"],
                                r["distance_status"] != wq.EXACT,
                                -(r["distance"] or 0),
                                r["spec"]))
    return results


def _verify_system(group, n, Q, metric, rng, count, warnings) -> dict:
    if group == QUATERNION:
        dec = qa.build_quaternion_decomposition(n, Q)
    else:
        dec = da.build_dihedral_decomposition(n, Q, metric)
    checks = {}

    mismatch = 0
    for _ in range(count):
        spec = ic.random_spec(dec, rng)
        rows = ic.ideal_to_code(dec, spec)
        dual = ic.ideal_to_code(dec, du.dual_spec(dec, spec))
        if dec.mode == da.HERMITIAN:
            ref = oracle.hermitian_dual_basis(dec.alphabet, rows, dec.q)
        else:
            ref = oracle.euclid_dual_basis(dec.alphabet, rows)
        if not linalg.row_space_equal(dec.alphabet, dual, ref):
            mismatch += 1
    checks["dual_vs_oracle"] = mismatch

    bad = 0
    for _ in range(count):
        u = rng.integers(0, dec.Q, dec.length).astype(np.int32)
        v = rng.integers(0, dec.Q, dec.length).astype(np.int32)
        lhs = dec.rho(oracle.group_mul(dec.alphabet, dec.mul_table, u, v))
        rhs = [da.slot_mul(s, x, y) for s, x, y
               in zip(dec.slots(), dec.rho(u), dec.rho(v))]
        if lhs != rhs:
            bad += 1
    checks["rho_multiplicative"] = bad

    census = du.count_selforth(dec)
    if census <= 200_000:
        enum = sum(1 for _ in du.enumerate_selforth(dec))
        checks["census_formula_vs_enumeration"] = 0 if enum == census else 1
    else:
        warnings.append(
            f"census enumeration skipped for {census} self-orthogonal "
            f"ideals ({group} n={n} q={Q} {metric})")
    return {
        "system": f"GF({Q})[{'Q' if group == QUATERNION else 'D'}_{n}]",
        "metric": dec.mode,
        "checks": checks,
        "ok": all(v == 0 for v in checks.values()),
    }


def cmd_verify(cfg: RunConfig, warnings: list) -> list:
    rng = np.random.default_rng(cfg.seed)
    count = cfg.limit if cfg.limit is not None else DEFAULT_VERIFY_SPECS
    if cfg.q is not None and cfg.n is not None:
        matrix = [(cfg.group, cfg.n, cfg.q, cfg.metric)]
    else:
        matrix = list(VERIFY_MATRIX)
    return [_verify_system(group, n, Q, metric, rng, count, warnings)
            for group, n, Q, metric in matrix]


# ---------------------------------------------------------------------------
# output rendering


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_csv(results: list) -> str:
    buf = io.StringIO()
    if not results:
        return ""
    keys = sorted({k for r in results for k in r})
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for r in results:
        writer.writerow({k: json.dumps(v, sort_keys=True)
                         if isinstance(v, (dict, list)) else v
                         for k, v in r.items()})
    return buf.getvalue()


def _render_text(payload: dict) -> str:
    lines = []
    for i, r in enumerate(payload["results"]):
        lines.append(f"-- result {i} --")
        for k in sorted(r):
            lines.append(f"{k}: {json.dumps(r[k], sort_keys=True)}")
    for w in payload["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "decompose": cmd_decompose,
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "dual": cmd_dual,
    "classify": cmd_classify,
    "css-search": cmd_css_search,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    warnings: list = []
    try:
        _validate(cfg)
        results = _COMMANDS[cfg.command](cfg, warnings)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        # a broken library invariant, not bad input
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    # deterministic work counters: wall-clock seconds would break the
    # byte-identical-output guarantee for repeated seeded runs
    timings = {"results_emitted": len(results), "warnings": len(warnings)}
    payload = {
        "config": asdict(cfg),
        "results": results,
        "timings": timings,
        "warnings": warnings,
    }
    if cfg.format == "json":
        sys.stdout.write(_render_json(payload))
    elif cfg.format == "csv":
        sys.stdout.write(_render_csv(results))
    else:
        sys.stdout.write(_render_text(payload))
    if cfg.command == "verify" and any(not r["ok"] for r in results):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
