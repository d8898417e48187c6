"""The package layering of ``src/repro``, read from the source with ``ast``
(nothing here imports ``repro``): each package imports only from lower
layers, so a new back edge fails tier-1 instead of a review."""

import ast
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
    ("api", "elastic"),
    ("__init__",),
    ("experiments",),
)
RANK = {pkg: level for level, pkgs in enumerate(LAYERS) for pkg in pkgs}

#: The only upward imports, each inside a function body (a lazy import).
LAZY_BACK_EDGES = {("serving/session.py", "api"),
                   ("training/recovery.py", "elastic")}


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


def test_gateway_is_single_threaded():
    """The gateway is documented as single-threaded, so it holds no lock
    and runs no pool: ``gateway.py`` imports neither ``threading`` nor
    ``concurrent.futures``, at module level or inside a function."""
    assert threading_imports(SRC / "serving" / "gateway" / "gateway.py") == []
