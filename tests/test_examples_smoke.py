"""Smoke-run every ``examples/*.py`` in-process at tiny sizes.

Each example's ``main`` accepts size knobs precisely so this test can
shrink it to seconds; a per-example alarm guards against hangs, so API
refactors cannot silently break (or stall) the documented entry points.
"""

import importlib.util
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

#: example module -> kwargs that shrink its main() to a smoke run.
EXAMPLE_ARGS = {
    "quickstart": dict(scale="tiny", epochs=1),
    "model_zoo": dict(scale="tiny", epochs=1),
    "distributed_training": dict(scale="tiny", world=2, epochs=1),
    "memory_comparison": dict(nodes=8, entries=200),
    "dynamic_graphs": dict(nodes=10, entries=300, epochs=1, horizon=4),
    "scaling_study": dict(epochs=5),
    "online_serving": dict(scale="tiny", epochs=1, requests=40, shards=2),
    "fault_tolerance": dict(scale="tiny", epochs=1, world=2, crash_step=2,
                            requests=30),
    "gateway": dict(scale="tiny", epochs=1, requests=60),
    "elastic": dict(scale="tiny", epochs=1, requests_per_tick=40),
}

TIMEOUT_SECONDS = 120


@contextmanager
def alarm(seconds: int, label: str):
    if not hasattr(signal, "SIGALRM"):  # non-unix fallback: no guard
        yield
        return

    def _timeout(signum, frame):
        raise TimeoutError(f"example {label!r} exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples_smoke_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_every_example_is_covered():
    """A new example must either get smoke args here or opt out loudly."""
    on_disk = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLE_ARGS), (
        "examples/ and EXAMPLE_ARGS disagree; add smoke kwargs for new "
        "examples so refactors keep them runnable")


def test_max_wait_lives_only_in_build_gateway():
    """The serving queue is work-conserving and has no timer to set.  The
    one ``max_wait`` left in ``src/`` is ``build_gateway``'s parameter,
    kept (range-checked, otherwise unused) because ``benchmarks/e2e``
    still passes it; until the ``benchmark`` PR drops both, nothing may
    thread the knob anywhere else."""
    import ast

    src = EXAMPLES_DIR.parent / "src"
    home = src / "repro" / "api" / "serving.py"
    (span,) = [range(node.lineno, node.end_lineno + 1)
               for node in ast.parse(home.read_text()).body
               if isinstance(node, ast.FunctionDef)
               and node.name == "build_gateway"]
    stray = [f"{path.relative_to(src)}:{number}"
             for path in sorted(src.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "max_wait" in line
             and not (path == home and number in span)]
    assert stray == []


@pytest.mark.parametrize("name", sorted(EXAMPLE_ARGS))
def test_example_runs(name, capsys):
    module = _load_example(name)
    with alarm(TIMEOUT_SECONDS, name):
        module.main(**EXAMPLE_ARGS[name])
    out = capsys.readouterr().out
    assert out.strip(), f"example {name!r} printed nothing"


def test_readme_gateway_snippet_runs(tmp_path, monkeypatch, capsys):
    """The README's gateway walkthrough, executed verbatim: only the names
    it leaves to the reader (two checkpoint files, a sensor row and a
    window) are supplied here."""
    import re

    import numpy as np

    from repro.api import RunSpec, run
    from repro.training.checkpoint import save_checkpoint

    readme = (EXAMPLES_DIR.parent / "README.md").read_text()
    section = readme.split("## Multi-tenant gateway", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)

    spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn", scale="tiny",
                   epochs=1)
    result = run(spec)
    monkeypatch.chdir(tmp_path)
    for name in ("lite.npz", "bay-v2.npz"):
        save_checkpoint(name, result.artifacts.model, epoch=1, spec=spec,
                        scaler=result.artifacts.loaders.scaler)
    window = result.artifacts.loaders.test.batch_at(np.arange(1))[0][0].copy()
    names = dict(window=window, sensor_row=window[-1, :, :1],
                 timestamp_minutes=0.0)
    with alarm(TIMEOUT_SECONDS, "README gateway snippet"):
        exec(compile(snippet, "README.md#multi-tenant-gateway", "exec"),
             names)
    assert names["key"] == "key-ops"
    assert names["fc"].forecast.predictions.shape == window.shape[:2]
    assert "'version': 'v2'" in capsys.readouterr().out
