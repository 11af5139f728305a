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

# `graph_dense.txt` comes from the pair-by-pair sampler, `graph_geometric.txt`
# (n = 2001 > DENSE_LIMIT) from the geometric-skip sampler.
GOLDEN = {
    "deviation.json": "7b7bde4e1ceb781b07ef2278321d782dd6a59041157785215ba9dfa530c43086",
    "escape.json": "ddd889e2f2f7dfafe7da74c9ecec2aeefa7e9b67a8e5dc270fe12504cace0d06",
    "goodness.json": "099e5c7c2d90927659f15fb07f6820ad48505fd375ab3935741fbd8cabe91f79",
    "graph_dense.txt": "37c643e4b7f011014eb3369eb55841c119a8df0c48695bb12b9847acadecf8c0",
    "graph_geometric.txt": "886935eea79f1dce7aef85b788f45ac32a05a1765e62fc005f5a4cba487befe7",
    "simulate_best_of_5.csv": "025f2d7dbae161818d2b4988e54039fb6e543700ba1d7fb946e28e422e4a84d9",
    "simulate_bo2.csv": "7cfa9cb6340be2c1780b9878a6e207dc62884e74825819dde097d275b5a211bc",
    "simulate_bo3.csv": "6f24b4bfc8d970ce7555f2944c27ad9f1cb0db924fdee4117344ae598a252b6c",
    "simulate_geometric.csv": "df4b460086d3ade7044166979da49ff0ef95030cdb8e503cbc63683a98b0c1ef",
    "sink_bo2.json": "89d4fc5dc76a1d08a3786b9d54fb25da838a72f261a8cda0eec19ca8ac6fc7a7",
    "sink_bo3.json": "9e65117a6d3aa507fe13a3606ffeee88a3b0495dee66724950df2ab69fab1cb1",
    "sweep/results.csv": "45114280d3ca38f1d5ff67bc78aace29ba5cd9133fc2c7cefb28f06fde809fbf",
    "sweep/summary.json": "d87f6386e908cadd1ee2b630396290a3f4c1c89b0df535aea5d7055d3d4bca27",
    "worst_case.csv": "ce38da5e25e5d0694887e4cf96ead67b23033c829c05e5ac08e6a9dd823f8aae",
    "worst_case.json": "4df0ff0b0a2c1b21d4e251b4d0ed1a2b9366eef57d592029ccc27b909ae2d15f",
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
