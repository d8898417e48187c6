"""One workload in one fresh interpreter, driven over a pipe by ``run.py``.

The driver starts ``python worker.py --workload W ...``, reads one JSON
line per event from the worker's stdout and writes one JSON command per
line to its stdin: ``segment`` (run segment i, reply with its phases),
``corrupt`` (smoke test only: damage the next forecast before it is
checked), ``finish`` (checks, layer probes, span dump, exit) or ``quit``.
A fresh interpreter per workload keeps ``ru_maxrss`` clean; blocking on
the pipe between segments is what lets the driver interleave workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--data")
    ap.add_argument("--make-data", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    # The pipe carries protocol lines only: anything the program under
    # test prints goes to stderr instead.
    pipe = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(event: str, **fields) -> None:
        pipe.write(json.dumps({"event": event, **fields},
                              default=_jsonable) + "\n")
        pipe.flush()

    from repro import kernels   # the driver put src/ and the root on the path

    from benchmarks.e2e import machine, workloads
    from benchmarks.e2e.tracing import Tracer

    kernels.set_backend("numpy")
    cls = workloads.WORKLOADS[args.workload]
    if args.make_data:
        cls.make_data(args.data, args.quick)
        return 0
    tracer = Tracer() if args.trace else None
    workload = cls(args.seed, args.seconds, tracer, data_path=args.data,
                   quick=args.quick)
    workload.setup()
    emit("ready", layers=workload.layers,
         environment=machine.environment(args.seed))
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "segment":
            phases = workload.segment(cmd["index"])
            emit("segment", phases=phases, rss_mb=workloads.peak_rss_mb())
        elif cmd["cmd"] == "corrupt":
            workload.corrupt_next = True
        elif cmd["cmd"] == "finish":
            checks = {k: bool(v) for k, v in workload.finish().items()}
            if tracer is not None and args.trace_out:
                tracer.dump(args.trace_out, args.workload)
            emit("done", checks=checks, layers=workload.layers,
                 failure_notes=workload.failure_notes,
                 spans=len(tracer.spans) if tracer is not None else 0)
            break
        else:       # "quit": a set-up-only repeat
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
