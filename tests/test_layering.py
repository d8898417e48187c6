"""The package layering of ``src/repro``, read from the source with ``ast``:
each package imports only from lower layers, so a new back edge fails
tier-1 instead of a review.  Only ``test_every_export_resolves`` and the
backward-reachability guard, which runs every model once, import
``repro``."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: Bottom to top; a package may import only from strictly lower layers.
#: ``__init__`` is the ``repro`` package itself (its lazy ``repro.api``).
LAYERS = (
    ("_version", "kernels", "utils", "viz"),
    ("autograd", "graph", "hardware"),
    ("cluster", "datasets", "nn"),
    ("models", "optim", "preprocessing", "runtime"),
    ("batching", "serving"),
    ("training",),
    ("api",),
    ("__init__",),
    ("experiments",),
)
RANK = {pkg: level for level, pkgs in enumerate(LAYERS) for pkg in pkgs}

#: The only upward imports, each inside a function body (a lazy import).
LAZY_BACK_EDGES = {("serving/session.py", "api")}


def imports(path: Path):
    """``(module, lazy)`` for every absolute import in ``path``."""
    tree = ast.parse(path.read_text())
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = ([f"repro.{a.name}" for a in node.names]
                     if node.module == "repro" else [node.module])
        else:
            continue
        for name in names:
            yield name, id(node) not in top


def package(path: Path) -> str:
    rel = path.relative_to(SRC)
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def edges():
    for path in sorted(SRC.rglob("*.py")):
        for name, lazy in imports(path):
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and parts[1] != package(path):
                yield path.relative_to(SRC).as_posix(), parts[1], lazy


def test_every_package_has_a_layer():
    on_disk = {package(p) for p in SRC.rglob("*.py")}
    assert on_disk == set(RANK)


def test_imports_point_down():
    up = {(f, dst) for f, dst, lazy in edges()
          if RANK[dst] >= RANK[package(SRC / f)]
          and not (lazy and (f, dst) in LAZY_BACK_EDGES)}
    assert up == set()


def test_lazy_back_edges_still_exist():
    assert {(f, dst) for f, dst, lazy in edges() if lazy} >= LAZY_BACK_EDGES


def test_nothing_in_src_imports_the_ledger():
    assert [f for f, dst, _ in edges() if dst == "experiments"
            and package(SRC / f) != "experiments"] == []


def partitioner_imports(path: Path):
    """Lines of ``path`` that import the graph partitioner: the
    ``repro.graph.partition`` module itself or ``partition_graph`` from
    anywhere."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            hit = any(a.name == "repro.graph.partition" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            hit = ("partition_graph" in names
                   or (node.module or "").endswith("graph.partition")
                   or (node.module == "repro.graph" and "partition" in names))
        else:
            continue
        if hit:
            yield node.lineno


def test_only_the_ablation_partitions_the_graph():
    """The paper's scope, stated in code: every training rank and every
    serving session holds the whole sensor graph.  Outside the package
    that defines it, the partitioner has one user, the ablation that
    measures what partitioning would cost."""
    users = {p.relative_to(SRC).as_posix()
             for p in sorted(SRC.rglob("*.py"))
             if package(p) != "graph" and any(partitioner_imports(p))}
    assert users == {"experiments/partitioning.py"}


@pytest.mark.parametrize("source, hit", [
    ("import repro.graph.partition\n", True),
    ("from repro.graph.partition import edge_cut\n", True),
    ("from repro.graph import partition\n", True),
    ("from repro.graph import partition_graph\n", True),
    ("def f():\n    from .partition import partition_graph\n", True),
    ("from repro.graph import adjacency, supports\n", False),
], ids=["module", "from-module", "from-package", "function", "lazy",
        "other-graph-modules"])
def test_partition_guard_sees_every_import_form(tmp_path, source, hit):
    """The guard above is only as good as this scan: each way of
    reaching the partitioner is flagged, and nothing else in
    ``repro.graph`` is."""
    path = tmp_path / "module.py"
    path.write_text(source)
    assert bool(list(partitioner_imports(path))) is hit


def test_serving_leaves_shared_memory_to_the_fabric():
    """Serving never touches the fork fabric; shared memory belongs to
    training's forked ranks."""
    assert [f"{p.relative_to(SRC)}: {name}"
            for p in sorted((SRC / "serving").rglob("*.py"))
            for name, _ in imports(p)
            if name.split(".")[:3] == ["repro", "runtime", "fabric"]] == []


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks", "examples"])
def test_nothing_imports_profiling(tree):
    assert [f"{p.relative_to(REPO)}: {name}"
            for p in sorted((REPO / tree).rglob("*.py"))
            for name, _ in imports(p)
            if name.split(".")[:2] == ["repro", "profiling"]] == []


def sparsetools_imports(source: str):
    """Lines of ``source`` that import scipy's private ``_sparsetools``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name.startswith("scipy.sparse._sparsetools")
               for name in names):
            yield node.lineno


def test_only_kernels_import_sparsetools():
    """scipy's C kernel is reached through ``repro.kernels`` alone: the
    hop chains there bind its operands once per call, and a model that
    called ``csr_matvecs`` itself would skip the checks."""
    users = {p.relative_to(SRC).as_posix()
             for p in sorted(SRC.rglob("*.py"))
             if any(sparsetools_imports(p.read_text()))}
    assert users and all(u.startswith("kernels/") for u in users), users


@pytest.mark.parametrize("source, hit", [
    ("from scipy.sparse import _sparsetools as _st\n", True),
    ("import scipy.sparse._sparsetools\n", True),
    ("def f():\n    from scipy.sparse._sparsetools import csr_matvecs\n",
     True),
    ("from scipy.sparse import csr_matrix, linalg\n", False),
], ids=["from-package", "module", "lazy-function", "public-scipy"])
def test_sparsetools_guard_sees_every_import_form(source, hit):
    assert bool(list(sparsetools_imports(source))) is hit


def threading_imports(path: Path):
    return [name for name, _ in imports(path)
            if name.split(".")[0] in ("threading", "concurrent")]


@pytest.mark.parametrize("source, hit", [
    ("import threading\n", True),
    ("from concurrent.futures import ThreadPoolExecutor\n", True),
    ("def f():\n    from threading import RLock\n", True),
    ("import time\nfrom collections import deque\n", False),
], ids=["module", "from-package", "lazy-function", "single-threaded"])
def test_threading_guard_sees_every_import_form(tmp_path, source, hit):
    path = tmp_path / "gateway.py"
    path.write_text(source)
    assert bool(threading_imports(path)) is hit


def test_every_module_is_single_threaded():
    """Ranks run in order or as forked processes, and the gateway is one
    serving loop, so nothing holds a lock or runs a pool: no module under
    ``src/repro`` imports ``threading`` or ``concurrent.futures``, at
    module level or inside a function."""
    hits = {str(path.relative_to(SRC)): names
            for path in sorted(SRC.rglob("*.py"))
            if (names := threading_imports(path))}
    assert hits == {}


#: ``*Stats``/``*Report``/``*Event``/``*Record`` classes in ``src/``: one
#: bespoke record type per subsystem, where one observability registry
#: should serve them all.  The ceiling only ever comes down.
REPORT_CLASS = re.compile(r"class \w+(Stats|Report|Event|Record)")
REPORT_CLASS_CEILING = 14


def report_classes(src: Path):
    return [f"{path.relative_to(src).as_posix()}: {m.group(0)}"
            for path in sorted(src.rglob("*.py"))
            for m in REPORT_CLASS.finditer(path.read_text())]


def test_report_classes_only_fall():
    found = report_classes(SRC)
    assert len(found) <= REPORT_CLASS_CEILING, found


#: ``__all__`` names nothing in ``src/``, ``benchmarks/`` or ``examples/``
#: reads, each kept on purpose: ``(package, name): reason``.
UNUSED_EXPORTS = {
    ("preprocessing", "index_nbytes"):
        "paper eq. (2); tests compare IndexDataset's bytes against it",
}


def exported_names(src: Path):
    """``(package, name)`` for every name in a subpackage's ``__all__``,
    the package dotted below ``repro`` (``serving.gateway``)."""
    for init in sorted(src.glob("*/**/__init__.py")):
        package = ".".join(init.parent.relative_to(src).parts)
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                for name in ast.literal_eval(node.value):
                    yield package, name


def read_names(roots):
    """Every name read in the ``.py`` files under ``roots``, outside any
    ``__init__.py``: a ``Name`` or ``Attribute`` in load context, or a
    name imported with ``from ... import``."""
    seen = set()
    for root in roots:
        for path in root.rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    seen.update(a.name for a in node.names)
    return seen


def unread_exports(repo: Path):
    src = repo / "src" / "repro"
    seen = read_names([repo / "src", repo / "benchmarks", repo / "examples"])
    return {(pkg, name) for pkg, name in exported_names(src)
            if name not in seen}


def test_every_export_has_a_caller():
    """A public name is public because something uses it: every name in
    a ``repro`` subpackage's ``__all__`` is read somewhere in ``src/``,
    ``benchmarks/`` or ``examples/``, or is in ``UNUSED_EXPORTS`` with
    its reason."""
    assert unread_exports(REPO) == set(UNUSED_EXPORTS)


def test_unused_exports_are_live_and_explained():
    """An allowlist entry names a name that is still exported, and says
    why it stays; a stale entry would vouch for nothing."""
    exported = set(exported_names(SRC))
    for entry, reason in UNUSED_EXPORTS.items():
        assert entry in exported, entry
        assert isinstance(reason, str) and reason.strip(), entry


@pytest.mark.parametrize("package", sorted(
    {pkg for pkg, _ in exported_names(SRC)}))
def test_every_export_resolves(package):
    """The guard reads ``__all__`` from source, so each listed name must
    be bound in the package (``from repro.<package> import *`` works)
    and listed once."""
    module = importlib.import_module(f"repro.{package}")
    names = [name for pkg, name in exported_names(SRC) if pkg == package]
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("caller, flagged", [
    ("", True),
    ("from repro.pkg import helper\n", False),
    ("import repro.pkg\nrepro.pkg.helper()\n", False),
    ("helper = 1\n", True),
], ids=["no-caller", "import-from", "attribute", "store"])
def test_export_guard_sees_every_use_form(tmp_path, caller, flagged):
    """The guard above is only as good as this scan: an import or an
    attribute read counts as a caller, a store of the same name does
    not, and neither does the defining package's ``__init__``."""
    pkg = tmp_path / "src" / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.pkg.impl import helper\n\n__all__ = [\"helper\"]\n")
    (pkg / "impl.py").write_text("def helper():\n    return 1\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "caller.py").write_text(caller)
    assert (("pkg", "helper") in unread_exports(tmp_path)) is flagged


#: Backward closures in ``src/`` that no model's training step reaches,
#: each kept on purpose: ``(module, qualname): reason``.
UNREACHED_BACKWARDS: dict[tuple[str, str], str] = {}


def backward_closures(src: Path):
    """``(module, qualname)`` of every function or lambda a ``.py`` under
    ``src`` assigns to a ``._backward``, keyed the way the closure's own
    ``__module__`` and ``__qualname__`` read at run time
    (``Tensor.__add__.<locals>._bw``)."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{prefix}{child.name}.<locals>.")
                continue
            if isinstance(child, ast.Assign) and any(
                    isinstance(t, ast.Attribute) and t.attr == "_backward"
                    for t in child.targets):
                if isinstance(child.value, ast.Lambda):
                    found.add((module, f"{prefix}<lambda>"))
                elif isinstance(child.value, ast.Name):
                    found.add((module, f"{prefix}{child.value.id}"))
            visit(child, module, prefix)

    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text()), module, "")
    return found


def graph_backwards(root):
    """``(module, qualname)`` of every ``_backward`` on the graph that
    ends at ``root``; call it before ``backward()``, which frees it."""
    found, seen, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.add((node._backward.__module__,
                       node._backward.__qualname__))
        stack.extend(node._parents)
    return found


def model_step_backwards():
    """What every ``MODELS`` entry reaches in one ``l1_loss`` training
    step at ``tiny``, with one and two input features (ST-LLM's
    time-of-day branch needs two) and DCRNN's scheduled sampling on."""
    import numpy as np

    from repro.api.builders import ModelContext
    from repro.api.registry import MODELS
    from repro.api.scales import TINY
    from repro.autograd import Tensor
    from repro.graph import random_sensor_network
    from repro.models import DCRNN
    from repro.optim import l1_loss

    graph = random_sensor_network(TINY.nodes, seed=0)
    rng = np.random.default_rng(0)
    reached = set()
    for in_features in (1, 2):
        ctx = ModelContext(graph=graph, horizon=TINY.horizon,
                           in_features=in_features,
                           hidden_dim=TINY.hidden_dim, seed=0)
        shape = (TINY.batch_size, TINY.horizon, TINY.nodes)
        x = rng.standard_normal(shape + (in_features,)).astype(np.float32)
        y = rng.standard_normal(shape + (1,)).astype(np.float32)
        for name in MODELS.names():
            model = MODELS.get(name)(ctx)
            extra = {"targets": y} if isinstance(model, DCRNN) else {}
            loss = l1_loss(model(Tensor(x), **extra), y)
            reached |= graph_backwards(loss)
            loss.backward()
    return reached


def unexplained_backwards(closures, reached, allowlist):
    """``(unreached, stale)``: closures no walk reaches and no allowlist
    entry explains, and entries that explain no unreached closure."""
    unreached = closures - reached
    return unreached - set(allowlist), set(allowlist) - unreached


def test_every_backward_is_reached():
    """An op is in the engine because a model trains through it: every
    closure ``src/`` assigns to a ``._backward`` is on the graph of some
    ``MODELS`` entry's training step, or is in ``UNREACHED_BACKWARDS``
    with its reason.  A stale entry fails too."""
    closures = backward_closures(SRC)
    reached = model_step_backwards()
    assert reached <= closures, reached - closures   # the keys agree
    assert unexplained_backwards(closures, reached, UNREACHED_BACKWARDS) \
        == (set(), set())
    assert all(isinstance(r, str) and r.strip()
               for r in UNREACHED_BACKWARDS.values())


#: One op per way a backward closure is written; ``_out`` makes the
#: output node.
SYNTHETIC_OPS = '''
def _out(x):
    return x._make(x.data * 2.0, (x,))


class Scaled:
    def forward(self, x):
        out = _out(x)

        def _bw(g):
            x._accumulate(g * 2.0)

        out._backward = _bw
        return out

    class Inner:
        def forward(self, x):
            out = _out(x)
            out._backward = lambda g: x._accumulate(g * 2.0)
            return out


def doubled(x):
    out = _out(x)
    out._backward = lambda g: x._accumulate(g * 2.0)
    return out


def nested(x):
    def build():
        out = _out(x)

        def _bw(g):
            x._accumulate(g * 2.0)

        out._backward = _bw
        return out
    return build()
'''

#: ``form: (call, qualname)`` for each op above.
SYNTHETIC_FORMS = {
    "method": (lambda ops, x: ops.Scaled().forward(x),
               "Scaled.forward.<locals>._bw"),
    "nested-class": (lambda ops, x: ops.Scaled.Inner().forward(x),
                     "Scaled.Inner.forward.<locals>.<lambda>"),
    "function-lambda": (lambda ops, x: ops.doubled(x),
                        "doubled.<locals>.<lambda>"),
    "closure-in-closure": (lambda ops, x: ops.nested(x),
                           "nested.<locals>.build.<locals>._bw"),
}


def synthetic_ops(root: Path, filename: str = "ops.py"):
    """Write :data:`SYNTHETIC_OPS` into package ``pkg`` under ``root`` and
    import it under the dotted name its path gives."""
    import importlib.util
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / filename).write_text(SYNTHETIC_OPS)
    name = "pkg" if filename == "__init__.py" else "pkg.ops"
    spec = importlib.util.spec_from_file_location(name, pkg / filename)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    return ops, name


def synthetic_walk(ops, form):
    import numpy as np

    from repro.autograd import Tensor
    call, _ = SYNTHETIC_FORMS[form]
    return graph_backwards(call(ops, Tensor(np.ones(3), requires_grad=True)))


@pytest.mark.parametrize("form, filename", [
    *((form, "ops.py") for form in SYNTHETIC_FORMS),
    ("method", "__init__.py"),
], ids=[*SYNTHETIC_FORMS, "package-init"])
def test_backward_scan_keys_closures_as_python_does(tmp_path, form,
                                                    filename):
    """The source scan gives each closure the ``(__module__,
    __qualname__)`` that a walk of the live graph reads off it."""
    ops, module = synthetic_ops(tmp_path, filename)
    key = (module, SYNTHETIC_FORMS[form][1])
    assert synthetic_walk(ops, form) == {key}
    assert key in backward_closures(tmp_path / "pkg")


@pytest.mark.parametrize("called", [
    (), ("method", "function-lambda"), tuple(SYNTHETIC_FORMS),
], ids=["no-walk", "some-reached", "all-reached"])
def test_backward_guard_flags_what_no_walk_reaches(tmp_path, called):
    """A closure is flagged exactly when no walk reaches it."""
    ops, module = synthetic_ops(tmp_path)
    reached = set().union(*(synthetic_walk(ops, f) for f in called))
    flagged = {(module, qualname) for form, (_, qualname)
               in SYNTHETIC_FORMS.items() if form not in called}
    closures = backward_closures(tmp_path / "pkg")
    assert unexplained_backwards(closures, reached, {}) == (flagged, set())


@pytest.mark.parametrize("entry", [("m", "A.f.<locals>._bw"),
                                   ("m", "gone.<locals>._bw")],
                         ids=["reached", "gone"])
def test_backward_guard_fails_on_a_stale_entry(entry):
    """An allowlist entry for a closure a walk reaches, or for one that is
    gone, vouches for nothing and fails the guard."""
    closures = {("m", "A.f.<locals>._bw"), ("m", "A.g.<locals>._bw")}
    reached = {("m", "A.f.<locals>._bw")}
    allow = {("m", "A.g.<locals>._bw"): "kept", entry: "stale"}
    assert unexplained_backwards(closures, reached, allow) == (set(), {entry})
