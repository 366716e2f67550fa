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
import collections
import csv
import io
import itertools
import json
import sys

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
# codes are built in batches of this many cells (specs per batch times
# |G|^2), which keeps a batch's arrays near 1 MiB
CODE_BATCH_CELLS = 2 ** 15
# verify checks the duals of this many cells of specs (times |G|^2) per
# oracle call: one call for each system of the default matrix, and stacks
# of a few MiB for a long --limit
VERIFY_BATCH_CELLS = 2 ** 18

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


# ---------------------------------------------------------------------------
# element / spec formatting helpers


def _fmt_master(x: int) -> str:
    return "0" if x == ZERO else f"g^{x}"


def _fmt_slot_value(slot, value) -> list:
    """Slot value as a JSON-friendly nested list of element strings."""
    if slot.kind == da.MAT_SLOT:
        return [[_fmt_master(x) for x in row] for row in (value[:2], value[2:])]
    return [_fmt_master(x) for x in ((value,) if slot.kind == da.FIELD_SLOT else value)]


def _generator_images(dec) -> dict:
    """Slotwise images of the group generators a and b."""
    gens = np.zeros((2, dec.length), dtype=np.int32)
    # a has index 1, except in D_1 where a = 1 has index 0; 1 is the
    # alphabet index of one
    gens[[0, 1], [1 % dec.a_order, dec.a_order]] = 1
    return {name: [_fmt_slot_value(s, v) for s, v in zip(dec.slots(), values)]
            for name, values in zip("ab", dec.rho(gens))}


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


# the flags beyond --q, --n, --group, --metric and --format, each with
# the commands that read it; the others get its default, so that every
# parsed namespace, the run configuration, has the same keys
_FLAGS = {
    "--isd-weight": (("css-search",), dict(
        type=int, default=None,
        help="stop distance enumeration after this information weight, at "
             "least 1 (status degrades to upper_bound when the bound is not "
             "closed)")),
    "--seed": (("verify",), dict(type=int, default=0)),
    "--spec": (("dual", "classify", "css-search"), dict(
        default=None, help="file of spec serializations, one per line")),
    "--limit": (("enumerate", "dual", "classify", "css-search", "verify"),
                dict(type=int, default=None,
                     help="evaluate at most this many specs")),
}


def _parse_args(argv) -> argparse.Namespace:
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
        # None until given, so that verify can refuse one it would ignore
        p.add_argument("--group", choices=(DIHEDRAL, QUATERNION),
                       default=None, help=f"default {DIHEDRAL}")
        p.add_argument("--metric", choices=(da.EUCLIDEAN, da.HERMITIAN),
                       default=None, help=f"default {da.EUCLIDEAN}")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        for flag, (commands, kwargs) in _FLAGS.items():
            if name in commands:
                p.add_argument(flag, **kwargs)
            else:
                p.set_defaults(**{flag[2:].replace("-", "_"):
                                  kwargs["default"]})
    return parser.parse_args(argv)


def _validate(ns: argparse.Namespace) -> None:
    """Input errors in the parsed arguments, before defaults fill them in."""
    if ns.command != "verify" and (ns.q is None or ns.n is None):
        raise CliError(f"{ns.command} needs --q and --n")
    if (ns.q is None) != (ns.n is None):
        raise CliError("verify needs both --q and --n, or neither")
    if ns.q is not None:
        try:
            split_prime_power(ns.q)
        except ValueError as e:
            raise CliError(str(e)) from None
    if ns.limit is not None and ns.limit < 0:
        raise CliError("--limit must not be negative")
    if ns.isd_weight is not None and ns.isd_weight < 1:
        # information weight 0 enumerates no codeword: no bound at all
        raise CliError("--isd-weight must be at least 1")
    if ns.command == "verify" and ns.limit == 0:
        raise CliError("verify --limit 0 would check no spec")
    if ns.q is None:
        # the default verify matrix fixes each system's group and metric
        for flag, value in (("--group", ns.group), ("--metric", ns.metric)):
            if value is not None:
                raise CliError(f"verify {flag} needs --q and --n")
    if ns.group == QUATERNION and ns.metric == da.HERMITIAN:
        raise CliError(
            "hermitian duality of a quaternion algebra is handled through "
            f"the isomorphic dihedral algebra: rerun with --group dihedral"
            f" --n {2 * ns.n}")


def build_system(group: str, n: int, q: int, metric: str):
    """Decomposition of GF(q)[D_n] or GF(q)[Q_n]."""
    if group == QUATERNION:
        return qa.build_quaternion_decomposition(n, q)
    return da.build_dihedral_decomposition(n, q, metric)


def _load_specs(cfg: argparse.Namespace, dec, warnings: list) -> list:
    """The specs of the --spec file, the first --limit of them when the
    file holds more (with a warning)."""
    if cfg.spec is None:
        raise CliError(f"{cfg.command} needs --spec <file>")
    with open(cfg.spec) as fh:
        lines = [line.strip() for line in fh]
    lines = [line for line in lines if line and not line.startswith("#")]
    return [ic.parse_spec(dec, line)
            for line in _first(lines, cfg.limit, warnings, "spec file")]


def _first(items, limit: int | None, warnings: list, what: str) -> list:
    """The first ``limit`` items, all of them when ``limit`` is None, with a
    "<what> truncated at --limit N" warning when there were more."""
    kept = list(itertools.islice(items, None if limit is None else limit + 1))
    if limit is not None and len(kept) > limit:
        warnings.append(f"{what} truncated at --limit {limit}")
        del kept[limit:]
    return kept


# ---------------------------------------------------------------------------
# emission-time re-validation


def _oracle_dual(dec, codes):
    """The oracle's RREF (R, pivots) of the dual of a code, or of each code
    of a stack, under the pairing the algebra was built for."""
    if dec.mode == da.HERMITIAN:
        return oracle.hermitian_dual_basis(dec.alphabet, codes, dec.q)
    return oracle.euclid_dual_basis(dec.alphabet, codes)


def _witness_selforth(dec, R) -> None:
    """Check through the dense oracle that every code of the stack of
    RREFs R (B, m, |G|) lies in its dual: one stacked oracle dual and one
    stacked membership test for the whole stack."""
    if len(R):
        dual, pivots = _oracle_dual(dec, R)
        if not linalg.in_row_space(dec.alphabet, dual, pivots, R).all():
            raise AssertionError("self-orthogonality witness failed")


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(cfg: argparse.Namespace, warnings: list) -> list:
    dec = build_system(cfg.group, cfg.n, cfg.q, cfg.metric)
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


def cmd_count(cfg: argparse.Namespace, warnings: list) -> list:
    dec = build_system(cfg.group, cfg.n, cfg.q, cfg.metric)
    return [{
        "ideals": ic.spec_count(dec),
        "self_orthogonal": du.count_selforth(dec),
        "metric": cfg.metric,
    }]


def _batches(specs, size: int):
    """The specs in lists of ``size``, the last one shorter."""
    specs = iter(specs)
    while batch := list(itertools.islice(specs, size)):
        yield batch


def _spec_records(dec, specs):
    """(record, dual spec) for each spec in turn.  The record holds the
    spec's dimension and self-orthogonality flags; each spec is dualised
    once.  The codes are built in batches of CODE_BATCH_CELLS // |G|^2
    specs, one ``ideal_to_code`` each, and the nonzero self-orthogonal
    codes of a batch are witnessed together (``_witness_selforth``)."""
    for batch in _batches(specs, max(1, CODE_BATCH_CELLS // dec.length ** 2)):
        R, pivots = ic.ideal_to_code(dec, ic.SpecBatch(batch))
        duals = [du.dual_spec(dec, spec) for spec in batch]
        # an ideal is self-orthogonal when its dual contains it
        selforth = [ic.spec_contains(dual, spec)
                    for spec, dual in zip(batch, duals)]
        _witness_selforth(dec, R[[i for i, ok in enumerate(selforth)
                                  if ok and pivots[i]]])
        for spec, dual, ok, piv in zip(batch, duals, selforth, pivots):
            record = {
                "spec": ic.format_spec(dec, spec),
                "length": dec.length,
                "dimension": len(piv),
                "self_orthogonal": ok,
                "self_dual": dual == spec,
                "dual_dim": ic.ideal_dimension(dec, dual),
            }
            yield record, dual


def cmd_enumerate(cfg: argparse.Namespace, warnings: list) -> list:
    dec = build_system(cfg.group, cfg.n, cfg.q, cfg.metric)
    # with an explicit --limit the stream stops early, so the safety budget
    # on the total ideal count is unnecessary
    budget = None if cfg.limit is not None else ic.DEFAULT_ENUM_BUDGET
    specs = _first(ic.enumerate_specs(dec, budget=budget), cfg.limit,
                   warnings, "enumeration")
    return [record for record, _ in _spec_records(dec, specs)]


def cmd_dual(cfg: argparse.Namespace, warnings: list) -> list:
    dec = build_system(cfg.group, cfg.n, cfg.q, cfg.metric)
    results = []
    specs = _load_specs(cfg, dec, warnings)
    for spec, (record, dual) in zip(specs, _spec_records(dec, specs)):
        record["dual_spec"] = ic.format_spec(dec, dual)
        if du.dual_spec(dec, dual) != spec:
            raise AssertionError("dual involution failed on this spec")
        results.append(record)
    return results


def cmd_classify(cfg: argparse.Namespace, warnings: list) -> list:
    dec = build_system(cfg.group, cfg.n, cfg.q, cfg.metric)
    results = []
    specs = _load_specs(cfg, dec, warnings)
    for spec, (record, dual) in zip(specs, _spec_records(dec, specs)):
        hull_dim = ic.ideal_dimension(dec, du.spec_meet(spec, dual))
        record["hull_dimension"] = hull_dim
        record["lcd"] = hull_dim == 0
        segments = record["spec"].split("; ")
        record["block_labels"] = [
            {"kind": blk.kind, "label": segments[i]}
            for i, blk in enumerate(dec.blocks)]
        results.append(record)
    return results


def _selforth_only(dec, specs, warnings: list):
    """The specs whose ideals are hermitian self-orthogonal, in turn; a
    warning for each other one."""
    for spec in specs:
        try:
            wq.check_self_orthogonal(dec, spec)
        except du.NotSelfOrthogonalError as e:
            warnings.append(f"skipped {ic.format_spec(dec, spec)}: {e}")
        else:
            yield spec


def cmd_css_search(cfg: argparse.Namespace, warnings: list) -> list:
    if cfg.metric != da.HERMITIAN:
        raise CliError("css-search uses the hermitian metric; "
                       "pass --metric hermitian")
    dec = build_system(cfg.group, cfg.n, cfg.q, cfg.metric)
    if cfg.spec is not None:
        specs = _selforth_only(dec, _load_specs(cfg, dec, warnings), warnings)
    else:
        specs = _first(du.enumerate_selforth(dec), cfg.limit, warnings,
                       "css search")
    results = []
    # one css_hermitian call per batch builds the codes of its specs and of
    # their duals, CODE_BATCH_CELLS cells in all, and searches them
    size = max(1, CODE_BATCH_CELLS // (2 * dec.length ** 2))
    for batch in _batches(specs, size):
        records = wq.css_hermitian(dec, ic.SpecBatch(batch),
                                   max_weight=cfg.isd_weight)
        for spec, rec in zip(batch, records):
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


def _dual_mismatches(dec, specs) -> int:
    """How many specs' closed-form duals differ from the oracle's.

    One oracle call dualises the codes of each batch of
    VERIFY_BATCH_CELLS // |G|^2 specs, built with their closed-form duals
    by ``codes_with_duals``.  Both sides are RREFs, so equal row spaces
    are equal pivots and rows; the oracle's (B, |G|, |G|) stack has no
    nonzero row past the largest dimension when the pivots agree.
    """
    step = max(1, VERIFY_BATCH_CELLS // dec.length ** 2)
    mismatch = 0
    for batch in _batches(specs, step):
        (R, _), (Rd, dual_pivots) = du.codes_with_duals(dec, batch)
        ref, ref_pivots = _oracle_dual(dec, R)
        same = (ref[:, :Rd.shape[1]] == Rd).all(axis=(1, 2))
        mismatch += sum(not (ok and p == d)
                        for ok, p, d in zip(same, ref_pivots, dual_pivots))
    return mismatch


def _count(items) -> int:
    """How many items an iterator yields, consumed without a Python step
    per item: each is paired with the next number of a counter."""
    counter = itertools.count()
    collections.deque(zip(items, counter), maxlen=0)
    return next(counter)


def _verify_system(group, n, Q, metric, rng, count, warnings) -> dict:
    dec = build_system(group, n, Q, metric)
    checks = {}

    specs = [ic.random_spec(dec, rng) for _ in range(count)]
    checks["dual_vs_oracle"] = _dual_mismatches(dec, specs)

    pairs = rng.integers(0, dec.Q, (count, 2, dec.length))
    U, V = pairs[:, 0], pairs[:, 1]
    W = oracle.group_mul(dec.alphabet, dec.mul_table, U, V)
    slots = dec.slots()
    checks["rho_multiplicative"] = sum(
        lhs != [da.slot_mul(s, x, y) for s, x, y in zip(slots, ru, rv)]
        for lhs, ru, rv in zip(dec.rho(W), dec.rho(U), dec.rho(V)))

    census = du.count_selforth(dec)
    if census <= 200_000:
        enum = _count(du.enumerate_selforth(dec))
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


def cmd_verify(cfg: argparse.Namespace, warnings: list) -> list:
    rng = np.random.default_rng(cfg.seed)
    count = cfg.limit if cfg.limit is not None else DEFAULT_VERIFY_SPECS
    if cfg.q is not None:
        matrix = [(cfg.group, cfg.n, cfg.q, cfg.metric)]
    else:
        matrix = list(VERIFY_MATRIX)
    return [_verify_system(group, n, Q, metric, rng, count, warnings)
            for group, n, Q, metric in matrix]


# ---------------------------------------------------------------------------
# output rendering


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _render_json(payload: dict):
    """The pieces of ``_dump(payload)`` and a newline, each result encoded
    on its own and handed over as it is encoded: json's indenting encoder
    gathers every token of a document in one list, and for a whole census
    that list, or the document joined from its results, would be most of
    the command's peak memory."""
    results = payload["results"]
    if not results:
        yield _dump(payload) + "\n"
        return
    # the results list sits two levels deep, so each result is indented by
    # four spaces; no other bare list item is that deep
    head, tail = _dump({**payload, "results": [None]}).split("\n    null\n")
    yield head
    for i, r in enumerate(results):
        yield (",\n    " if i else "\n    ") + _dump(r).replace("\n", "\n    ")
    yield "\n" + tail + "\n"


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
        ns = _parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    warnings: list = []
    try:
        _validate(ns)
        # the parsed namespace is the run configuration
        ns.group = ns.group or DIHEDRAL
        ns.metric = ns.metric or da.EUCLIDEAN
        results = _COMMANDS[ns.command](ns, warnings)
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
        "config": vars(ns),
        "results": results,
        "timings": timings,
        "warnings": warnings,
    }
    if ns.format == "json":
        sys.stdout.writelines(_render_json(payload))
    elif ns.format == "csv":
        sys.stdout.write(_render_csv(results))
    else:
        sys.stdout.write(_render_text(payload))
    if ns.command == "verify" and any(not r["ok"] for r in results):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
