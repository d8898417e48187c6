"""Distributed training with the three data strategies of the paper.

Runs real DDP training over 4 ranks with:

- baseline DDP (on-demand remote batch fetches),
- distributed-index-batching (full local copies, comm-free shuffling),
- generalized-distributed-index-batching (partitions + batch shuffling),

and prints accuracy, simulated wall time, and per-category traffic for
each — the small-scale analogue of Figures 7 and 9.  Each strategy is one
``RunSpec``; the ``ProcessGroup.stats`` traffic accounting comes from the
run's artifacts.  The last run repeats dist-index on a second fabric
(``--transport``: ``thread`` = one real thread per rank, ``process`` =
one forked interpreter per rank over shared memory) to show the same
fixed-seed loss curve training on a different fabric.

Run:  python examples/distributed_training.py [--transport process]
"""

import argparse

from repro.api import RunSpec, STRATEGIES, TRANSPORTS, run
from repro.utils import format_bytes
from repro.utils.seeding import seed_everything


def run_strategy(strategy: str, scale: str, world: int, epochs: int,
                 transport: str = "sim"):
    spec = RunSpec(dataset="pems-bay", model="pgt-dcrnn", batching="index",
                   scale=scale, seed=1, strategy=strategy, world_size=world,
                   epochs=epochs, transport=transport)
    result = run(spec)
    trainer = result.artifacts.trainer
    comm = trainer.comm

    traffic = {k: format_bytes(v)
               for k, v in sorted(comm.stats.bytes_by_category.items())}
    print(f"\n{strategy} [{transport}]")
    print(f"  best val MAE      : {result.best_val_mae:.3f}")
    if transport == "sim":
        print(f"  simulated wall    : {comm.now * 1e3:.3f} ms "
              f"(tiny model on simulated A100s)")
    else:
        kind = {"thread": "rank threads",
                "process": "forked rank processes"}[transport]
        print(f"  measured wall     : {comm.now * 1e3:.1f} ms "
              f"({world} {kind})")
    print(f"  comm breakdown    : {traffic}")
    print(f"  shuffle mode      : {trainer.shuffle}")
    return result


def main(scale: str = "small", world: int = 4, epochs: int = 4,
         transport: str = "thread") -> None:
    seed_everything(1)
    distributed = [s for s in STRATEGIES if s != "single"]
    print(f"training across {world} simulated ranks at scale={scale!r}; "
          f"strategies: {distributed}")
    results = {s: run_strategy(s, scale, world, epochs)
               for s in distributed}
    refabric = run_strategy("dist-index", scale, world, epochs,
                            transport=transport)
    same = refabric.train_curve == results["dist-index"].train_curve
    print(f"\n{transport} vs sim fixed-seed curves bitwise identical: {same}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument("--world", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--transport", default="thread",
                        choices=[t for t in TRANSPORTS if t != "sim"],
                        help="fabric for the comparison rerun of "
                             "dist-index (sim is always the reference)")
    main(**vars(parser.parse_args()))
