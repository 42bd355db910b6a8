"""Every public module-level ``def``/``class`` in the package is reached by
code that a workload, the CLI or the driver runs.

A name counts as reached when some non-test file (the package,
``__ray_entry__.py``, ``bench.py``, ``tools/``, ``perfbench/``) mentions it
as an AST ``Name``, an ``Attribute`` or a ``from … import`` alias, outside
the name's own definition. Reference forms that only tests compare against
live in ``tests/reference_forms.py`` instead.
"""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "tiff_enrichment_pipeline_ray"

# name -> reason it stays in the package without a non-test reference.
ALLOW = {}


def _py_files(*parts):
    path = os.path.join(ROOT, *parts)
    if os.path.isfile(path):
        return [path]
    out = []
    for d, _, files in os.walk(path):
        out += [os.path.join(d, f) for f in files if f.endswith(".py")]
    return sorted(out)


def _refs(tree):
    """Names a module references, skipping each top-level def's self-mentions."""
    seen = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            own = owner
            if owner is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = child.name
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name is not None and name != own:
                seen.add(name)
            if isinstance(child, ast.ImportFrom):
                seen.update(a.name for a in child.names)
            walk(child, own)

    walk(tree, None)
    return seen


def _public_defs(tree):
    return [n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def test_every_public_name_has_a_non_test_reference():
    sources = (_py_files(PACKAGE) + _py_files("__ray_entry__.py")
               + _py_files("bench.py") + _py_files("tools") + _py_files("perfbench"))
    refs = set()
    defs = []
    for path in sources:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        refs |= _refs(tree)
        if path.startswith(os.path.join(ROOT, PACKAGE)):
            rel = os.path.relpath(path, ROOT)
            defs += [(rel, n.name) for n in _public_defs(tree)]
    assert defs, "package scan found no definitions"
    assert all(reason.strip() for reason in ALLOW.values())
    unreached = sorted(f"{rel}:{name}" for rel, name in defs
                       if name not in refs and name not in ALLOW)
    assert not unreached, (
        f"{len(unreached)} public names only tests reach; move reference forms "
        f"to tests/reference_forms.py or delete them: {unreached}")
