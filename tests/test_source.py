"""Checks on the package source itself and on the README's example."""

import ast
import collections
import contextlib
import io
import tokenize
from pathlib import Path

import groupcodes

SOURCES = sorted(Path(groupcodes.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_no_bare_asserts():
    """Invariants raise explicitly, so they still hold under ``python -O``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in SOURCES}


def test_no_unused_imports():
    """No module imports a name it never reads, as a removal may leave."""
    found = []
    for name, tree in _trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            found += [f"{name}:{node.lineno} {alias.name}"
                      for alias in node.names
                      if (alias.asname or alias.name.split(".")[0])
                      not in read]
    assert not found, found


def test_private_names_are_read():
    """Every module-level private name is read somewhere in the package
    besides its definition."""
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target.id]
            else:
                continue
            found += [f"{name}:{node.lineno} {t}" for t in targets
                      if t.startswith("_") and not t.startswith("__")
                      and t not in read]
    assert not found, found


_TABLE_NAMES = {"add_t", "mul_t", "neg_t", "inv_t", "coord_t", "mulmat_t",
                "pack_t"}


def test_tables_are_read_through_one_path():
    """Outside ``fields`` no alphabet table is indexed: entrywise
    arithmetic goes through ``Subfield.add`` / ``mul`` / ``neg`` / ``inv``,
    and the coordinate tables are read with ``take``."""
    found = []
    for name, tree in _trees().items():
        if name == "fields.py":
            continue
        found += [f"{name}:{node.lineno} {node.value.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr in _TABLE_NAMES]
    assert not found, found


_KERNEL = {("weights_quantum.py", "_zero_counts"),
           ("weights_quantum.py", "_pack")}


def test_words_are_counted_in_one_kernel():
    """Only the zero-count kernel and its packer reinterpret buffers
    (``.view``) or count bits (``bitwise_count``), so that the two distance
    scans weigh words through one kernel."""
    found = []
    for name, tree in _trees().items():
        skip = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and (name, fn.name) in _KERNEL
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if (isinstance(node, ast.Attribute)
                    and node.attr == "bitwise_count"):
                found.append(f"{name}:{node.lineno} bitwise_count")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "view"):
                found.append(f"{name}:{node.lineno} view")
    assert not found, found


def _calls_by_scope(tree, attr):
    """The scopes (``Class.method``, ``function`` or ``<module>``) of the
    calls of ``attr`` in a module, one entry per call site."""
    scopes = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    scopes.update((id(n), f"{node.name}.{fn.name}")
                                  for n in ast.walk(fn))
        elif isinstance(node, ast.FunctionDef):
            scopes.update((id(n), node.name) for n in ast.walk(node))
    return [scopes.get(id(node), "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and attr in (getattr(node.func, "attr", None),
                         getattr(node.func, "id", None))]


def test_supports_come_from_one_head_stream():
    """``itertools.combinations`` has one call site, the head stream of the
    information-set search, so that supports are laid out by index
    arithmetic rather than built as tuples chunk by chunk."""
    found = [f"{name} {scope}" for name, tree in _trees().items()
             for scope in _calls_by_scope(tree, "combinations")]
    assert found == ["weights_quantum.py _Search._enumerate_weight"], found


def test_lanes_are_padded_in_one_place():
    """``_padded`` is called only where rows are packed (``_pack``) and
    where the packed width enters a weight (``_Search.__init__``,
    ``min_distance_exhaustive``), so that both scans build their words at
    the code's length and leave the padding lanes to the packer."""
    found = sorted(f"{name} {scope}" for name, tree in _trees().items()
                   for scope in _calls_by_scope(tree, "_padded"))
    assert found == ["weights_quantum.py _Search.__init__",
                     "weights_quantum.py _pack",
                     "weights_quantum.py min_distance_exhaustive"], found


def test_one_slot_recipe_per_block_shape():
    """Each block shape's generator images are written once, in closed
    form: no module defines the derivations (``transport`` with its 2x2
    inverse and determinant, the twisted rewriting ``theta_map``), which
    are the tests' references, and the one relations guard that checks the
    images of every slot kind is called from ``_assemble`` alone, which
    every build of either group runs."""
    trees = _trees()
    derived = sorted(f"{name} {node.name}" for name, tree in trees.items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name in ("transport", "m2_inv", "m2_det",
                                       "theta_map"))
    assert not derived, derived
    guard = [f"{name} {scope}" for name, tree in trees.items()
             for scope in _calls_by_scope(tree, "_check_relations")]
    assert guard == ["dihedral_algebra.py _assemble"], guard


def test_one_block_builder_for_both_metrics():
    """``dihedral_algebra._blocks`` is the one place that turns factor
    families into blocks for either metric and for the quaternion rotation
    side: it alone resolves roots and makes unit blocks, and the quaternion
    x^n + 1 side is the only other caller of the 2x2 slot recipes."""
    trees = _trees()

    def callers(attr):
        return sorted(f"{name} {scope}" for name, tree in trees.items()
                      for scope in _calls_by_scope(tree, attr))

    builder = "dihedral_algebra.py _blocks"
    assert callers("_unit_block") == [builder]
    assert callers("_resolve_root") == [builder]
    assert callers("_selfrec_slot") == [
        builder, "quaternion_algebra.py _b_selfrec_block"]
    assert callers("_pair_slot") == [
        builder, "quaternion_algebra.py build_quaternion_decomposition"]


def test_entries_meet_coordinates_in_one_place():
    """Block entries and alphabet coordinates meet only in ``PowerBasis``:
    ``embeddings.to_coords`` and ``to_elements`` are called in its
    ``flatten`` and ``unflatten`` alone, one block field at a time, and its
    digit maps are read in ``embeddings`` only.  No map of many entries at
    once (``block_maps``) is defined or read."""
    trees = _trees()
    found = sorted(f"{name} {scope}" for name, tree in trees.items()
                   for attr in ("to_coords", "to_elements")
                   for scope in _calls_by_scope(tree, attr))
    assert found == ["embeddings.py PowerBasis.flatten",
                     "embeddings.py PowerBasis.unflatten"], found
    digits = sorted({name for name, tree in trees.items()
                     for _, read in _reads(tree)
                     if read in ("to_digits", "from_digits")})
    assert digits == ["embeddings.py"], digits
    dense = [f"{name}:{getattr(node, 'lineno', 0)}"
             for name, tree in trees.items() for node in ast.walk(tree)
             if "block_maps" in (getattr(node, "name", None),
                                 getattr(node, "id", None),
                                 getattr(node, "attr", None))]
    assert not dense, dense


def test_one_modulus_search():
    """``fields.smallest_primitive_modulus`` is the package's one search for
    a primitive modulus, and ``build_field`` its one caller: no module
    defines a ``_poly_*`` helper or a second function named for
    primitivity.  The scalar search is the tests' reference only."""
    trees = _trees()
    found = sorted(f"{name} {node.name}" for name, tree in trees.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and (node.name.startswith("_poly_")
                        or "primitive" in node.name))
    assert found == ["fields.py smallest_primitive_modulus"], found
    callers = [f"{name} {scope}" for name, tree in trees.items()
               for scope in _calls_by_scope(tree, "smallest_primitive_modulus")]
    assert callers == ["fields.py build_field"], callers


def test_single_precision_only_where_it_is_exact():
    """``float32`` appears only in ``fields._build_exp_table``, whose
    docstring bounds every value its blocks make below 2^24: single
    precision goes only where a stated bound makes it exact."""
    found = []
    for path in SOURCES:
        text = path.read_text()
        spared = set()
        if path.name == "fields.py":
            fn, = [node for node in ast.parse(text).body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_build_exp_table"]
            spared = set(range(fn.lineno, fn.end_lineno + 1))
        found += [f"{path.name}:{i}"
                  for i, line in enumerate(text.splitlines(), 1)
                  if "float32" in line and i not in spared]
    assert not found, found


def test_builders_take_block_order_from_classification():
    """Neither builder sorts: ``classify_euclidean`` and
    ``classify_hermitian`` return factor families in block order."""
    trees = _trees()
    found = [f"{name} {scope}"
             for name in ("dihedral_algebra.py", "quaternion_algebra.py")
             for scope in _calls_by_scope(trees[name], "sorted")]
    assert not found, found


# documented API that nothing in the package or the benchmark calls, with
# the reason each one stays
_UNCALLED_API = {
    "ideals_codes.py code_to_ideal":
        "the README's round trip from a generator matrix to its descriptor",
    "oracle.py is_left_ideal":
        "the oracle's definition-level test that a code is a left ideal",
    "duality.py lambda_solution_set":
        "the slot-equation solution sets that criterion 9 counts",
}


def _bound(fn):
    """The names a function or lambda binds: its arguments and the names
    it assigns."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return names | {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)}


def _reads(node, bound=frozenset()):
    """(node, name) for each read in a tree: an attribute load, or a load of
    a name that no enclosing function binds."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        bound = bound | _bound(node)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node, node.attr
    elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
          and node.id not in bound):
        yield node, node.id
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, bound)


def _public_definitions(tree):
    """(name, node) for each public module-level def, class and assignment
    and each public method, a method named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def test_public_names_have_a_caller():
    """Every public name of the package is read by the package or the
    benchmark outside its own definition, or is documented API on the
    allowlist, which holds only names that exist and have no reader.  A
    method counts as read where any attribute of its name is."""
    package = _trees()
    bench = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "perfbench").glob("*.py"))]
    readers = collections.defaultdict(set)
    for tree in [*package.values(), *bench]:
        for node, name in _reads(tree):
            readers[name].add(id(node))
    unread = []
    for module, tree in package.items():
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            own = {id(n) for n in ast.walk(node)}
            if not short.startswith("_") and not readers[short] - own:
                unread.append(f"{module} {name}")
    extra = sorted(set(unread) - set(_UNCALLED_API))
    stale = sorted(set(_UNCALLED_API) - set(unread))
    assert not extra and not stale, (extra, stale)


def test_readme_quick_start_prints_what_it_states():
    """The README's Python quick start runs and prints, line by line, what
    its indented or trailing ``# ...`` comments state."""
    readme = (ROOT / "README.md").read_text()
    block = (readme.split("## Quick start (Python)")[1]
             .split("```python\n")[1].split("```")[0])
    stated = [tok.string[1:].strip() for tok in
              tokenize.generate_tokens(io.StringIO(block).readline)
              if tok.type == tokenize.COMMENT and tok.start[1] > 0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert stated and out.getvalue().splitlines() == stated
