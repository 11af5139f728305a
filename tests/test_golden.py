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
    "deviation.json": "aee6d240b76cda8ba837a5bffefc10a26d9d49f705719c5220668b33f8d037be",
    "escape.json": "db7c1ef067c34dd42c659693db9adaa4e4d2ffa0b30095689ed576cd1021e8d3",
    "goodness.json": "9fbcd1515517a992ef0d23f3b5947d47ea5eafdfa648b5178a535d5f381c6548",
    "graph_dense.txt": "5a26f3269f21ea05874ef3367dd9f6dca78ec5b339ddff9cd6d252fbe3acb400",
    "graph_geometric.txt": "886935eea79f1dce7aef85b788f45ac32a05a1765e62fc005f5a4cba487befe7",
    "simulate_best_of_5.csv": "28e8efef5db52bf238fe2252d0a48f32fb008593c1c042134af7062b34a53642",
    "simulate_bo2.csv": "48cdb4245e89f8747440189964ca906b6105b68e8e779b56e7a58a8162ece133",
    "simulate_bo3.csv": "5e20a6ad54d7994c55e1b475ab640545eb484a1040b89501267e69a4a61488ee",
    "simulate_geometric.csv": "df4b460086d3ade7044166979da49ff0ef95030cdb8e503cbc63683a98b0c1ef",
    "sink_bo2.json": "ce461ee90d7f9d5e37c77ddbb162681ef8d8cf28b4ba567506fc00249a53116a",
    "sink_bo3.json": "4806d1b38a5940608334ec240a733f4d657b99ea137905ffb52da55b7c7d00b3",
    "sweep/results.csv": "97012fd1ac7dcab6e57e87ddf2229b638e8062ac147315fbe961b3cde4412e30",
    "sweep/summary.json": "9ae0b121506bee4ac680d656957427c828b7873f275f10d07cecd75a7c055441",
    "worst_case.csv": "82eee88c189f8428891cde7d171c2dbbf3c7719b4ed03d87d722c38ad0d11dde",
    "worst_case.json": "8b65fb32c6ea76f02b58512e1201632d16c3fe8ac6e6426a4ac33aba07cd818e",
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
