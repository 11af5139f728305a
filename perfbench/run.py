"""votedyn benchmark entry point.

    python3 perfbench/run.py --workload sink|deviation|goodness|exact_small \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/votedyn and tests/oracles.py must
be present; nothing is installed or built). Each pass of the workload is one
fresh `python3 perfbench/child.py` process with --workers 1, so set-up time and
peak RSS belong to that workload alone. Passes repeat, all on the same seeded
inputs, until S seconds have gone by; figures are medians over the passes.

--trace 0 reports the end-to-end metrics, measured with no tracing installed.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead between the two kinds.

Human-readable lines and one provenance line come first; the last line of
stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5  # set-up-only processes per run, on top of one per pass
DEADLINE_S = 150.0  # start no pass after this; a run must end within 180 s
RUN_LIMIT_S = 175.0  # a child still running then is killed

# end-to-end metrics, and what work_per_s counts on each workload
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "work_per_s": "1/s",
}
RATE_NAMES = {
    "sink": ("steps_per_s", "synchronous steps summed over trials"),
    "deviation": ("trials_per_s", "trials of the deviation experiment"),
    "goodness": ("edges_per_s", "undirected edges through generate, save, load and report"),
    "exact_small": ("evals_per_s", "vertex adoption probabilities checked against the oracle"),
}


class BenchError(RuntimeError):
    pass


def spawn(workdir: Path, args: list[str], timeout: float) -> tuple[float, dict]:
    """Run child.py once; return (set-up seconds, its result)."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workdir", str(workdir), *args]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(workdir / "result.json") as fh:
        result = json.load(fh)
    shutil.rmtree(workdir)
    return result["ready"] - start, result


def median(values) -> float:
    return float(statistics.median(values))


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def count_checks(passes) -> tuple[int, int]:
    """(attempted, failed) over every output check of every pass."""
    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(1 for p in passes for _name, ok, _value in p["checks"] if not ok)
    return attempted, failed


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def end_to_end(setups, passes) -> dict:
    return {
        "setup_s": median(setups),
        "wall_s": median(p["wall_s"] for p in passes),
        "peak_rss_mib": median(p["rss_mib"] for p in passes),
        "work_per_s": median(rate(p["work"], p["wall_s"]) for p in passes),
    }


def per_layer(untraced, traced) -> dict:
    out = {name: median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = out["trace.wall_s"] - median(p["wall_s"] for p in untraced)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until `seconds` have gone by; returns (setups, untraced, traced)."""
    setups, untraced, traced = [], [], []
    began = time.monotonic()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        for k in range(SETUP_SPAWNS):
            setups.append(spawn(tmp / f"setup-{k}", ["--setup-only"], RUN_LIMIT_S - (time.monotonic() - began))[0])
        start = time.monotonic()
        durations = []
        for k in itertools.count():
            with_trace = trace and k % 2 == 1
            needed = not untraced or (with_trace and not traced)
            now = time.monotonic()
            # start a pass only if it should end within half a pass of `seconds`
            if not needed and (now - start + median(durations) / 2 > seconds or now - began > DEADLINE_S):
                break
            setup, result = spawn(
                tmp / f"pass-{k}",
                ["--workload", workload, "--seed", str(seed), "--trace", str(int(with_trace))],
                RUN_LIMIT_S - (now - began),
            )
            durations.append(time.monotonic() - now)
            setups.append(setup)
            (traced if with_trace else untraced).append(result)
    return setups, untraced, traced


def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            out[key.strip()] = value.strip()
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "votedyn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _bit_generators() -> list[str]:
    import numpy as np

    names = [
        name for name in dir(np.random)
        if isinstance(getattr(np.random, name), type)
        and issubclass(getattr(np.random, name), np.random.BitGenerator)
        and name != "BitGenerator"
    ]
    text = "".join(p.read_text() for p in (SRC / "votedyn").glob("*.py"))
    return sorted(name for name in names if f"random.{name}(" in text)


def provenance(workload: str, seed: int, passes) -> dict:
    import numpy as np

    outputs = passes[0]["outputs"]
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bit_generators": _bit_generators(),
        "caches": _lscpu_caches(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "output_sha256": outputs,
        "outputs_identical_across_passes": all(p["outputs"] == outputs for p in passes),
    }


def _spread(values) -> str:
    values = list(values)
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATE_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "votedyn" / "__init__.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print(f"perfbench: not a votedyn source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    try:
        setups, untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted, failed = count_checks(passes)
    for p in passes:
        for name, ok, value in p["checks"]:
            if not ok:
                print(f"FAILED check [{args.workload}] {name}: got {value!r}")
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit for name, (unit, _moves) in spans.LAYER_METRICS.items()}
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]} [moves {spans.LAYER_METRICS[name][1]}]")
    else:
        metrics = end_to_end(setups, untraced)
        units = END_TO_END
        print(f"{args.workload} setup_s = {metrics['setup_s']:.6g} s ({_spread(setups)})")
        print(f"{args.workload} wall_s = {metrics['wall_s']:.6g} s ({_spread(p['wall_s'] for p in untraced)})")
        print(f"{args.workload} peak_rss_mib = {metrics['peak_rss_mib']:.6g} MiB")
        print(f"{args.workload} fail_frac = {fail_frac(attempted, failed):.6g} ({failed}/{attempted} checks)")
        rate_name, counted = RATE_NAMES[args.workload]
        print(f"{args.workload} {rate_name} = {metrics['work_per_s']:.6g} 1/s (work_per_s: {counted})")
    print(json.dumps({"provenance": provenance(args.workload, args.seed, passes)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
