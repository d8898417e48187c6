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


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks", "examples"])
def test_nothing_imports_profiling(tree):
    assert [f"{p.relative_to(REPO)}: {name}"
            for p in sorted((REPO / tree).rglob("*.py"))
            for name, _ in imports(p)
            if name.split(".")[:2] == ["repro", "profiling"]] == []
