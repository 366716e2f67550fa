"""Outside-in span tracer for the groupcodes layers.

The tracer wraps public functions of the library from the benchmark's own
files: every module attribute that is bound to a wrapped function is
replaced, so names imported with ``from ... import`` are caught along with
module-level lookups, and methods are replaced on their class.  Spans
(name, start, end, parent, item) are appended to in-memory arrays and
written once, when the run ends.  ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of its direct child
spans.  The library is single-threaded and has no queues, so no span ever
waits and waiting time is not recorded.
"""

from __future__ import annotations

import array
import collections
import functools
import sys
import time

import numpy as np

from groupcodes import dihedral_algebra as da
from groupcodes import duality as du
from groupcodes import fields, ideals_codes as ic, linalg, oracle, polyfactor
from groupcodes import quaternion_algebra as qa
from groupcodes import weights_quantum as wq
from groupcodes import cli

# percentiles tried for a tail figure, highest first; the tail is the highest
# one with at least TAIL_MIN samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN = 10


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.item_id = 0
        self.counters: collections.Counter = collections.Counter()
        self._seen: dict[str, set] = collections.defaultdict(set)
        self._keep: list = []          # keeps keyed objects alive per item
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def set_item(self, item_id: int) -> None:
        self.item_id = item_id
        self._keep.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def distinct(self, metric: str, obj, key) -> None:
        """Count a distinct (object, key) argument within the current item."""
        self._keep.append(obj)
        self._seen[metric].add((self.item_id, id(obj), key))

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name: str, fn, on_call=None, on_result=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def _gen_wrapper(self, name: str, fn):
        """Each ``next`` on the generator is one span; yields are counted."""
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counters[name + ".items"] += 1
                yield value
        return wrapper

    def wrap_function(self, name, fn, on_call=None, on_result=None,
                      generator=False) -> None:
        """Replace every groupcodes module binding of ``fn``."""
        wrapped = (self._gen_wrapper(name, fn) if generator
                   else self._wrapper(name, fn, on_call, on_result))
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("groupcodes"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
                    sites += 1
        if not sites:
            raise RuntimeError(f"no binding site found for {name}")

    def wrap_method(self, name, cls, attr, on_call=None) -> None:
        fn = vars(cls)[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(name, fn, on_call))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> dict:
        # copies: a live buffer export would stop the arrays from growing
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.spans())

    def per_span(self) -> dict:
        """{name: {"calls", "self_s", "total_s", "durations"}}."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = s["name"] == i
            out[name] = {"calls": int(mask.sum()),
                         "self_s": float(own[mask].sum()),
                         "total_s": float(dur[mask].sum()),
                         "durations": dur[mask]}
        return out


def tail(durations) -> tuple[float, float]:
    """(percentile, value) of the highest TAIL_LADDER percentile with at
    least TAIL_MIN samples beyond it; (0, 0) when there are too few."""
    n = len(durations)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN:
            return pct, float(np.percentile(durations, pct))
    return 0.0, 0.0


# -- hooks that count work from argument shapes ------------------------------

def _matmul_work(tr, sub, A, B):
    tr.counters["linalg.matmul.mul_adds"] += A.shape[0] * A.shape[1] * B.shape[1]
    if tr.current() == "weights_quantum.exhaustive":
        tr.counters["weights_quantum.exhaustive.words"] += A.shape[0]


def _rref_work(tr, sub, A):
    tr.counters["linalg.rref.cells"] += A.shape[0] * A.shape[1]


def _subfield_built(tr, table, q):
    if q not in table._subfields:
        tr.counters["fields.subfield.built"] += 1


def _ideal_to_code_key(tr, dec, spec):
    tr.distinct("ideals_codes.ideal_to_code", dec, spec)


def _automorphism_key(tr, dec):
    tr.distinct("weights_quantum.code_automorphism", dec, None)


def _count_exact(tr, result):
    results = result if isinstance(result, tuple) else (result,)
    for r in results:
        if r is not None:
            tr.counters["weights_quantum.results"] += 1
            tr.counters["weights_quantum.exact"] += r.status == wq.EXACT


def install() -> Tracer:
    """Wrap every traced layer; the caller must call ``uninstall``."""
    tr = Tracer()
    try:
        tr.wrap_function("fields.build_field", fields.build_field)
        tr.wrap_method("fields.subfield", fields.FieldTable, "subfield",
                       _subfield_built)
        for fn in (polyfactor.factor_x_pow_n_minus_1,
                   polyfactor.factor_x_pow_n_plus_1):
            tr.wrap_function("polyfactor.factor", fn)
        tr.wrap_function("dihedral_algebra.build",
                         da.build_dihedral_decomposition)
        tr.wrap_function("quaternion_algebra.build",
                         qa.build_quaternion_decomposition)
        tr.wrap_method("dihedral_algebra.rho_inv", da.Decomposition, "rho_inv")
        tr.wrap_method("dihedral_algebra.rho", da.Decomposition, "rho")
        tr.wrap_function("linalg.matmul", linalg.matmul, _matmul_work)
        tr.wrap_function("linalg.rref", linalg.rref, _rref_work)
        tr.wrap_function("linalg.nullspace", linalg.nullspace)
        tr.wrap_function("linalg.in_row_space", linalg.in_row_space)
        tr.wrap_function("ideals_codes.ideal_to_code", ic.ideal_to_code,
                         _ideal_to_code_key)
        tr.wrap_function("duality.dual_spec", du.dual_spec)
        tr.wrap_function("duality.is_self_orthogonal", du.is_self_orthogonal)
        tr.wrap_function("duality.enumerate_selforth", du.enumerate_selforth,
                         generator=True)
        tr.wrap_function("weights_quantum.css_hermitian", wq.css_hermitian)
        for fn in (wq.min_distance_isd, wq.min_distance_isd_excluding):
            tr.wrap_function("weights_quantum.isd", fn, on_result=_count_exact)
        tr.wrap_function("weights_quantum.exhaustive",
                         wq.min_distance_exhaustive, on_result=_count_exact)
        tr.wrap_function("weights_quantum.code_automorphism",
                         wq.code_automorphism, _automorphism_key)
        for fn in (oracle.euclid_dual_basis, oracle.hermitian_dual_basis):
            tr.wrap_function("oracle.dual_basis", fn)
        tr.wrap_function("oracle.group_mul", oracle.group_mul)
        for fn in (oracle.dihedral_mul_table, oracle.quaternion_mul_table):
            tr.wrap_function("oracle.mul_table", fn)
        tr.wrap_function("cli.main", cli.main)
    except BaseException:
        tr.uninstall()
        raise
    return tr


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures by metric name (units are in BENCHMARK.json)."""
    spans = tr.per_span()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0,
            "durations": np.zeros(0)}

    def span(name):
        return spans.get(name, zero)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("fields.build_field", "dihedral_algebra.build",
                 "dihedral_algebra.rho_inv", "dihedral_algebra.rho",
                 "linalg.matmul", "linalg.rref", "linalg.in_row_space",
                 "ideals_codes.ideal_to_code", "duality.dual_spec",
                 "weights_quantum.css_hermitian", "oracle.group_mul",
                 "oracle.mul_table"):
        out[name + ".calls"] = span(name)["calls"]
    for name in ("fields.build_field", "fields.subfield", "polyfactor.factor",
                 "dihedral_algebra.build", "quaternion_algebra.build",
                 "dihedral_algebra.rho_inv", "dihedral_algebra.rho",
                 "linalg.matmul", "linalg.rref", "linalg.nullspace",
                 "linalg.in_row_space", "ideals_codes.ideal_to_code",
                 "duality.dual_spec", "duality.is_self_orthogonal",
                 "duality.enumerate_selforth", "weights_quantum.isd",
                 "weights_quantum.exhaustive", "oracle.dual_basis",
                 "oracle.group_mul", "oracle.mul_table"):
        out[name + ".self_s"] = span(name)["self_s"]
    out["fields.subfield.built"] = tr.counters["fields.subfield.built"]
    out["linalg.matmul.mul_adds"] = tr.counters["linalg.matmul.mul_adds"]
    out["linalg.rref.cells"] = tr.counters["linalg.rref.cells"]
    out["ideals_codes.ideal_to_code.total_s"] = \
        span("ideals_codes.ideal_to_code")["total_s"]
    for name in ("ideals_codes.ideal_to_code",
                 "weights_quantum.code_automorphism"):
        out[name + ".distinct_ratio"] = ratio(len(tr._seen[name]),
                                              span(name)["calls"])
    out["duality.enumerate_selforth.items"] = \
        tr.counters["duality.enumerate_selforth.items"]

    css = span("weights_quantum.css_hermitian")["durations"]
    out["weights_quantum.css_hermitian.p50_ms"] = \
        1e3 * float(np.median(css)) if len(css) else 0.0
    pct, value = tail(css)
    out["weights_quantum.css_hermitian.tail_ms"] = 1e3 * value
    out["weights_quantum.css_hermitian.tail_pct"] = pct
    words = tr.counters["weights_quantum.exhaustive.words"]
    out["weights_quantum.exhaustive.words"] = words
    out["weights_quantum.exhaustive.words_per_s"] = ratio(
        words, span("weights_quantum.exhaustive")["total_s"])
    out["weights_quantum.exact_ratio"] = ratio(
        tr.counters["weights_quantum.exact"],
        tr.counters["weights_quantum.results"])
    out["cli.main.total_s"] = span("cli.main")["total_s"]
    out["cli.self_s"] = span("cli.main")["self_s"]
    return out
