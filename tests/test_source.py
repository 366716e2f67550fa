"""Checks on the package source itself."""

import ast
from pathlib import Path

import groupcodes

SOURCES = sorted(Path(groupcodes.__file__).parent.glob("*.py"))


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
