"""The package uses Ray only through its public API.

A module fails when it imports from ``ray.data._internal`` or assigns to an
attribute of a name it imported from Ray (``ray.data.Dataset.join = …``,
``import … join as j; j.Cls = …``, or ``setattr`` on such a name). A patch
of Ray's internals can vanish without an error on a Ray upgrade, leaving
code that relied on it to fail far from the cause.

Modules under ``pipelines/`` and ``stages/`` also import nothing from
``ray.data.aggregate``: the query layer's exchanges are its own. They all
run through ``queries._exchange``, the one ``map_groups`` call of the
query layer; the flagship's partition writer (``run_flagship``) holds the
package's only other one.

Driver state reaches a map task in the UDF's closure, which Ray puts into
the object store once per operator. So no module calls ``ray.put`` or tests
``isinstance(…, ray.ObjectRef)``, except the flagship's layer broadcast:
``put_layers`` puts the layers once per session, and ``Enricher.__init__``
reads them back, because the ref keys each worker's cache of built indexes.
"""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "tiff_enrichment_pipeline_ray")
PRIVATE = "ray.data._internal"
AGGREGATE = "ray.data.aggregate"


def _is_ray(module):
    return module == "ray" or module.startswith("ray.")


def _violations(tree):
    """(line, reason) of every private Ray import and Ray attribute patch."""
    ray_names = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if _is_ray(a.name):
                    ray_names.add(a.asname or a.name.split(".")[0])
                if a.name.startswith(PRIVATE):
                    out.append((node.lineno, f"imports {a.name}"))
        elif isinstance(node, ast.ImportFrom) and _is_ray(node.module or ""):
            ray_names.update(a.asname or a.name for a in node.names)
            if node.module.startswith(PRIVATE):
                out.append((node.lineno, f"imports from {node.module}"))

    def root(expr):
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and node.args):
            targets = [ast.Attribute(value=node.args[0], attr="?")]
        for t in targets:
            for el in (t.elts if isinstance(t, ast.Tuple) else [t]):
                if isinstance(el, ast.Attribute) and root(el) in ray_names:
                    out.append((node.lineno,
                                f"patches {root(el)}.…{el.attr}"))
    return out


def test_no_private_ray_hooks():
    found = []
    for d, _, files in os.walk(PACKAGE):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                rel = os.path.relpath(path, ROOT)
                found += [f"{rel}:{line} {why}"
                          for line, why in _violations(tree)]
    assert not found, found


def _aggregate_imports(tree):
    """Lines that import from ``ray.data.aggregate``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""] + [f"{node.module}.{a.name}"
                                          for a in node.names]
        else:
            continue
        if any(m == AGGREGATE or m.startswith(AGGREGATE + ".")
               for m in mods):
            out.append(node.lineno)
    return out


def test_query_layer_runs_no_ray_aggregate():
    """Modules under ``pipelines/`` and ``stages/`` aggregate through the
    engine's own forms (``_preagg``, ``_reduce``, ``_topk``), never
    through Ray's aggregate operators, each an all-to-all exchange."""
    found = []
    for sub in ("pipelines", "stages"):
        for d, _, files in os.walk(os.path.join(PACKAGE, sub)):
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(d, f)
                    with open(path) as fh:
                        tree = ast.parse(fh.read(), path)
                    found += [f"{os.path.relpath(path, ROOT)}:{line}"
                              for line in _aggregate_imports(tree)]
    assert not found, found


def test_detects_aggregate_imports():
    src = ("from ray.data.aggregate import Count, Sum\n"
           "import ray.data.aggregate\n"
           "import ray.data.aggregate as agg\n"
           "from ray.data import aggregate\n"
           "from ray.data.aggregates import X\n")
    assert _aggregate_imports(ast.parse(src)) == [1, 2, 3, 4]


def test_detects_both_hook_forms():
    src = ("from ray.data._internal.execution.operators import join as j\n"
           "import ray.data\n"
           "j.JoiningShuffleAggregation = object\n"
           "ray.data.Dataset.join = None\n"
           "setattr(j, 'x', 1)\n"
           "ctx = ray.data.DataContext.get_current()\n"
           "ctx.enable_progress_bars = False\n")
    lines = sorted(line for line, _ in _violations(ast.parse(src)))
    assert lines == [1, 3, 4, 5]


# (module, enclosing def, form) allowed to hand-roll a broadcast.
BROADCAST_OWNERS = {
    ("tiff_enrichment_pipeline_ray/stages/enrich.py", "put_layers", "put"),
    ("tiff_enrichment_pipeline_ray/stages/enrich.py", "Enricher.__init__",
     "ObjectRef"),
}


def _broadcasts(tree):
    """(line, enclosing def, form) of every ``ray.put(…)`` call (form
    ``put``) and every ``isinstance(…, ray.ObjectRef)`` test (form
    ``ObjectRef``), whatever name ``ray`` or the member is imported as."""
    mods, members = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(a.asname or a.name for a in node.names
                        if a.name == "ray")
        elif isinstance(node, ast.ImportFrom) and node.module == "ray":
            members.update({a.asname or a.name: a.name for a in node.names})

    def member(expr):
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name) and expr.value.id in mods):
            return expr.attr
        return members.get(expr.id) if isinstance(expr, ast.Name) else None

    def form(call):
        if member(call.func) == "put":
            return "put"
        if (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                and len(call.args) == 2):
            t = call.args[1]
            if any(member(e) == "ObjectRef" for e in
                   (t.elts if isinstance(t, ast.Tuple) else [t])):
                return "ObjectRef"
        return None

    return _owned_calls(tree, form)


def _owned_calls(tree, form):
    """(line, enclosing def, form) of every call for which ``form(call)``
    names a form; the enclosing def is dotted through nested defs and
    classes ("" at module level)."""
    out = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            own = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                own = f"{owner}.{child.name}" if owner else child.name
            elif isinstance(child, ast.Call):
                f = form(child)
                if f:
                    out.append((child.lineno, owner, f))
            walk(child, own)

    walk(tree, "")
    return out


def test_driver_state_reaches_maps_by_closure():
    found = []
    for d, _, files in os.walk(PACKAGE):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                rel = os.path.relpath(path, ROOT)
                found += [f"{rel}:{line} {owner} {form}"
                          for line, owner, form in _broadcasts(tree)
                          if (rel, owner, form) not in BROADCAST_OWNERS]
    assert not found, found


def test_detects_broadcast_forms():
    src = ("import ray\n"
           "import ray as _r\n"
           "from ray import put as p, ObjectRef\n"
           "def f(x):\n"
           "    ref = ray.put(x)\n"
           "    class C:\n"
           "        def g(self, y=ref):\n"
           "            _r.put(y)\n"
           "            return isinstance(y, (int, ObjectRef))\n"
           "    p(x)\n"
           "    return isinstance(ref, _r.ObjectRef), ray.get(ref)\n")
    assert sorted(_broadcasts(ast.parse(src))) == [
        (5, "f", "put"), (8, "f.C.g", "put"), (9, "f.C.g", "ObjectRef"),
        (10, "f", "put"), (11, "f", "ObjectRef")]


# (module, enclosing def) allowed to call ``map_groups``.
MAP_GROUPS_OWNERS = {
    ("tiff_enrichment_pipeline_ray/pipelines/queries.py", "_exchange"),
    ("tiff_enrichment_pipeline_ray/pipelines/flagship.py", "run_flagship"),
}


def _map_groups_calls(tree):
    """(line, enclosing def, "map_groups") of every ``….map_groups(…)``
    call and every ``getattr(…, "map_groups")``, whatever the receiver."""
    def form(call):
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "map_groups":
            return "map_groups"
        if (isinstance(f, ast.Name) and f.id == "getattr"
                and len(call.args) >= 2
                and isinstance(call.args[1], ast.Constant)
                and call.args[1].value == "map_groups"):
            return "map_groups"
        return None

    return _owned_calls(tree, form)


def test_one_keyed_exchange():
    """Every keyed exchange of the query layer runs through
    ``queries._exchange``: no other function in the package calls
    ``map_groups``, except the flagship's partition writer."""
    found = []
    for d, _, files in os.walk(PACKAGE):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                rel = os.path.relpath(path, ROOT)
                found += [f"{rel}:{line} {owner}"
                          for line, owner, _ in _map_groups_calls(tree)
                          if (rel, owner) not in MAP_GROUPS_OWNERS]
    assert not found, f"{len(found)} map_groups call sites: {found}"


def test_detects_map_groups_forms():
    src = ("def f(ds):\n"
           "    g = ds.groupby('k')\n"
           "    a = g.map_groups(len, batch_format='pandas')\n"
           "    def inner(d):\n"
           "        return d.groupby('k').map_groups(len)\n"
           "    m = getattr(g, 'map_groups')\n"
           "    return g.map_batches(len), getattr(g, 'count')\n"
           "class C:\n"
           "    def h(self, g):\n"
           "        return g.map_groups(len)\n")
    assert sorted(_map_groups_calls(ast.parse(src))) == [
        (3, "f", "map_groups"), (5, "f.inner", "map_groups"),
        (6, "f", "map_groups"), (10, "C.h", "map_groups")]
