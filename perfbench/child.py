"""One benchmark pass in a fresh process: program set-up, the workload's timed
calls, its output checks, and (when traced) the per-layer metrics.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --workdir DIR
    python3 perfbench/child.py --setup-only --workdir DIR

Writes DIR/result.json. `ready` is the CLOCK_MONOTONIC time at which the
program is set up (votedyn and numpy imported, CLI parser built); the parent
subtracts its own clock reading taken just before the spawn.
"""

import argparse
import json
from pathlib import Path
import resource
import sys
import time

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy  # noqa: F401  (part of the program's set-up)
    from votedyn import cli_io

    cli_io.build_parser()
    ready = time.monotonic()
    workdir = Path(args.workdir)
    result = {"ready": ready}
    if not args.setup_only:
        import spans
        import workloads

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        run, check = workloads.WORKLOADS[args.workload]
        p = workloads.Pass(workdir=workdir, seed=args.seed)
        run(p)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p.hash_files()
        check(p, ROOT)
        result.update(
            wall_s=p.wall,
            work=p.work,
            rss_mib=rss_mib,
            checks=p.checks,
            outputs=p.outputs,
            output_bytes=p.output_bytes,
        )
        if tracer is not None:
            result["layers"] = spans.layer_metrics(
                tracer.spans, tracer.counters, p.wall, p.output_bytes
            )
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
