"""Broader applicability: every registered model family on one dataset.

The paper argues index-batching works for *any* sequence-to-sequence
spatiotemporal model (§5.5).  This example discovers the implemented
architectures through the ``repro.api`` model registry and trains each on
the same index-batched METR-LA stand-in with one ``RunSpec`` per model —
adding a model to the comparison is now just ``@MODELS.register(...)``.

Run:  python examples/model_zoo.py
"""

from repro.api import RunSpec, list_models, run
from repro.experiments import format_table
from repro.utils.seeding import seed_everything


def main(scale: str = "small", epochs: int = 4) -> None:
    seed_everything(7)
    rows = []
    for name in list_models():
        spec = RunSpec(dataset="metr-la", model=name, batching="index",
                       scale=scale, seed=7, epochs=epochs)
        result = run(spec)
        model = result.artifacts.model
        rows.append([name, f"{model.num_parameters():,}",
                     f"{result.best_val_mae:.3f}",
                     f"{result.runtime_seconds:.1f}s"])

    print(format_table(
        ["Model", "Params", "Best Val MAE (mph)", "Train time"], rows,
        title=f"Model zoo on METR-LA stand-in ({epochs} epochs, "
              f"index-batching, scale={scale})"))


if __name__ == "__main__":
    main()
