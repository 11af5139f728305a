"""Golden CLI outputs: a small seeded command set whose output files must stay
byte-identical across refactors. Each file is compared by sha256.

To re-freeze after an intended output change, run
``PYTHONPATH=src python -m tests.test_golden`` from the repository root and
paste the printed table into GOLDEN.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from votedyn.cli_io import main

# `graph_dense.txt` (n = 30, p = 0.4) and `graph_geometric.txt` (n = 2001,
# p = 0.002) come from the same sampler; only their density differs.
GOLDEN = {
    "deviation.json": "e91ab514bbaef6e824912dd5aaa0241bbc3cea8e3577216432aaaf55e8ea3754",
    "escape.json": "bc990c21438a17d432d29e30dbc3d83f2645ec2f5b9c90c6cf1480edad1dba5e",
    "goodness.json": "9fbcd1515517a992ef0d23f3b5947d47ea5eafdfa648b5178a535d5f381c6548",
    "graph_dense.txt": "5a26f3269f21ea05874ef3367dd9f6dca78ec5b339ddff9cd6d252fbe3acb400",
    "graph_geometric.txt": "886935eea79f1dce7aef85b788f45ac32a05a1765e62fc005f5a4cba487befe7",
    "simulate_best_of_5.csv": "9446ca2579627edd5cb3b3c2d9b0813b336349cd5a76f60ea1f01bea7f6a562c",
    "simulate_bo2.csv": "fcf5eb5fac70f0372515c0b88310efb5db9221a6c74caa8e38b07d580363400c",
    "simulate_bo3.csv": "c983ec23020a700ee6f793e418e573796ec0972f3277b887dc629715a9a97149",
    "simulate_geometric.csv": "6f127b9768ea85bbb526b6dcc5fc3e2d7c6accb9added3c96d2e6205367efd77",
    "sink_bo2.json": "453dd173d2eae39eff0711bb66c8b924a4d08458af15e08f68699724ee1de260",
    "sink_bo3.json": "38fecf6c8e2f6525b539a76b28cd015a03cf122ecaefac145e256e4ffd3e4408",
    "sweep/results.csv": "2c2ba886d54c61c2486a270a6ae5babe3fa0090cd2cdb7ea78b945acc2587cdf",
    "sweep/summary.json": "ca50fdb52aa439351e623bc37d0b0a65b1694725d455c37f61d4c6e34abec768",
    "worst_case.csv": "99409d7a945fe23a2f7872b4417a507b4718a0f89657164e418df468ae5585bd",
    "worst_case.json": "6b0d7c9b49e546dbecda79c439e552f21facf35abd9fe3093a44950186128dc1",
}


def _commands(d: Path) -> list[list[str]]:
    dense = str(d / "graph_dense.txt")
    common = ["--n", "30", "--p", "0.4", "--trials", "2", "--seed", "7", "--workers", "1"]
    return [
        ["generate", "--n", "30", "--p", "0.4", "--q", "0.1", "--seed", "3", "-o", dense],
        ["generate", "--n", "2001", "--p", "0.002", "--q", "0.0005", "--seed", "4",
         "-o", str(d / "graph_geometric.txt")],
        ["simulate", "--graph", dense, "--model", "bo3", "--init", "clustered(0.3,0.1)",
         "--max-steps", "50", "--seed", "5", "-o", str(d / "simulate_bo3.csv")],
        ["simulate", "--graph", dense, "--model", "bo2", "--init", "biased_global(0.2)",
         "--max-steps", "50", "--seed", "5", "-o", str(d / "simulate_bo2.csv")],
        ["simulate", "--graph", str(d / "graph_geometric.txt"), "--model", "bo3",
         "--max-steps", "20", "--seed", "5", "-o", str(d / "simulate_geometric.csv")],
        ["simulate", "--graph", dense, "--model", "best_of_5", "--init", "clustered(0.3,0.1)",
         "--max-steps", "50", "--seed", "5", "-o", str(d / "simulate_best_of_5.csv")],
        ["goodness", "--graph", dense, "--rule", "bo3", "--samples", "20", "--seed", "6",
         "-o", str(d / "goodness.json")],
        ["sweep", "--model", "bo3", *common, "--r-grid", "0.1,0.3", "--max-steps", "50",
         "--shared-graph", "-o", str(d / "sweep")],
        ["sink-persist", "--model", "bo3", "--n", "200", "--p", "0.2", "--r", "0.05",
         "--trials", "2", "--max-steps", "200", "--seed", "7", "--workers", "1",
         "-o", str(d / "sink_bo3.json")],
        ["sink-persist", "--model", "bo2", "--n", "200", "--p", "0.2", "--r", "0.10",
         "--trials", "2", "--max-steps", "200", "--seed", "7", "--workers", "1",
         "-o", str(d / "sink_bo2.json")],
        ["escape", "--model", "bo3", *common, "--r", "0.05", "--budget", "20",
         "-o", str(d / "escape.json")],
        ["deviation", "--model", "bo3", *common, "--r", "0.3", "--t-max", "5",
         "-o", str(d / "deviation.json")],
        ["worst-case", "--model", "bo3", *common, "--r", "0.1", "--max-steps", "50",
         "--csv", str(d / "worst_case.csv"), "-o", str(d / "worst_case.json")],
    ]


def _run(d: Path) -> dict[str, str]:
    for argv in _commands(d):
        assert main(argv) == 0, argv
    return {
        path.relative_to(d).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(d.rglob("*"))
        if path.is_file()
    }


def test_golden_cli_outputs(tmp_path):
    assert _run(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in _run(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
