"""Source conventions of the package, checked on its syntax trees.

- ``src/`` uses no underscore-prefixed numpy name: the library stays on
  numpy's public API (dunders such as ``__version__`` are public).
- Every public module-level name under ``src/entmoment`` has a caller: a
  use in ``src/``, ``demos/`` or ``perfbench/`` counts; the package's
  re-export and the tests do not.
- The estimators are reconstruction-free by construction: each takes one
  parameter, its moments (a dimension is read off their count), and neither
  they nor the module-private helpers they call name
  the state type, read a ``.matrix`` or apply a map or eigensolver that
  needs the state.  ``two_stage_protocol`` still diagonalizes the SPA
  output and is not an estimator here.
- Only the package root imports ``numbers``: it owns the integer and
  real-number rules, so a second numeric-type rule cannot come back unseen.
- Only ``linalg`` tests a value for ``Fraction`` or for the moment record
  (``isinstance``, ``issubclass`` or a ``type(...)`` comparison): exactness
  is decided once, where ``Moments`` is built, and read from its ``exact``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_underscore_prefixed_numpy_name_under_src():
    bad = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # names bound to numpy or to anything imported from it
        aliases = {a.asname or ("numpy" if isinstance(node, ast.Import) else a.name)
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for a in node.names
                   if (a.name if isinstance(node, ast.Import) else node.module or "").split(".")[0] == "numpy"}
        for node in ast.walk(tree):
            hits = []
            if isinstance(node, ast.Import):
                hits = [a.name for a in node.names
                        if a.name.split(".")[0] == "numpy" and any(map(_private, a.name.split(".")))]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                hits = [f"{node.module}.{a.name}" for a in node.names
                        if any(map(_private, [*node.module.split("."), a.name]))]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                hits = [node.attr] if isinstance(root, ast.Name) and root.id in aliases else []
            bad += [f"{path.relative_to(ROOT)}:{node.lineno}: {h}" for h in hits]
    assert not bad, "\n".join(bad)


def test_only_the_package_root_imports_numbers():
    importers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(m.split(".")[0] == "numbers" for m in modules):
                importers.append(str(path.relative_to(ROOT)))
    assert importers == ["src/entmoment/__init__.py"], importers


#: the moment record and the one type that makes a public entry exact
EXACTNESS_TYPES = {"Fraction", "Moments"}


def _is_type_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"


def test_only_linalg_tests_for_exactness_by_type():
    bad = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
                tested = node.args[1:]
            elif isinstance(node, ast.Compare) and any(map(_is_type_call, [node.left, *node.comparators])):
                tested = [x for x in [node.left, *node.comparators] if not _is_type_call(x)]
            else:
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr for x in tested for n in ast.walk(x)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            bad += [f"{path.relative_to(ROOT)}:{node.lineno}: {t}" for t in sorted(named & EXACTNESS_TYPES)]
    assert not bad, "\n".join(bad)


def test_every_public_name_under_src_has_a_caller():
    defined = []
    for path in sorted((ROOT / "src" / "entmoment").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(n, f"{path.stem}.{n}") for n in names if not n.startswith("_")]
    used = set()
    for root in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    used.update(a.name for a in node.names)
    bad = sorted(q for n, q in defined if n not in used)
    assert not bad, "\n".join(f"no caller: {q}" for q in bad)


#: moments in, estimates out: (module, top-level functions)
ESTIMATORS = {
    "protocols": ("newton_invert", "concurrence_from_moments", "spectrum_from_channel_moments"),
    "inversion": ("spectrum_from_power_sums",),
}
#: names that reach the state: its type, and the maps and eigensolvers applied to it
STATE_NAMES = {"DensityMatrix", "apply_spa_pt", "partial_transpose", "spin_flip", "herm_eigenvalues",
               "general_eigenvalues"}


def _with_private_callees(tree, roots):
    """The named top-level functions plus every module-private one they use, transitively."""
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached[name] = defs[name]
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and _private(n.id) and n.id in defs]
    return reached


def test_estimators_never_reach_the_state():
    bad = []
    for module, roots in ESTIMATORS.items():
        path = ROOT / "src" / "entmoment" / f"{module}.py"
        for name, fn in _with_private_callees(ast.parse(path.read_text(), str(path)), roots).items():
            for node in ast.walk(fn):
                is_attr = isinstance(node, ast.Attribute)
                used = node.attr if is_attr else node.id if isinstance(node, ast.Name) else None
                if used in STATE_NAMES or (is_attr and used == "matrix"):
                    bad.append(f"{module}.{name}:{node.lineno}: {used}")
    assert not bad, "\n".join(bad)


def test_estimators_take_their_moments_and_nothing_else():
    bad = []
    for module, roots in ESTIMATORS.items():
        path = ROOT / "src" / "entmoment" / f"{module}.py"
        defs = {node.name: node for node in ast.parse(path.read_text(), str(path)).body
                if isinstance(node, ast.FunctionDef)}
        for name in roots:
            a = defs[name].args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
            if len(params) != 1:
                bad.append(f"{module}.{name}({', '.join(params)})")
    assert not bad, "\n".join(bad)
