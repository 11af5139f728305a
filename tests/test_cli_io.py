"""Command-line interface: exit codes, file formats, and flag precedence."""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import inspect
import io
import json
import os
from pathlib import Path
import pkgutil
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import votedyn as vd
from votedyn import experiment_harness
from votedyn.cli_io import build_parser, main


def svg_stats(path) -> dict:
    text = path.read_text()
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f".//{ns}line") or root.findall(".//line")
    circles = [
        c
        for c in (root.findall(f".//{ns}circle") or root.findall(".//circle"))
        if c.get("class") == "fp"
    ]
    filled = [c for c in circles if c.get("fill") != "none"]
    labels = [
        t.text
        for t in (root.findall(f".//{ns}text") or root.findall(".//text"))
        if t.get("class") == "fp-label"
    ]
    return {
        "viewBox": root.get("viewBox"),
        "lines": len(lines),
        "fp": len(circles),
        "filled": len(filled),
        "labels": labels,
    }


# --- package surface ---


def _top_level_exports() -> dict:
    return {name: value for name, value in vars(vd).items() if not name.startswith("_") and not inspect.ismodule(value)}


def test_top_level_exports_are_pinned():
    # what the README, the CLI and the acceptance battery name, with the types
    # and constants they take or return; everything else is imported from its
    # module, so a new top-level name is a visible decision
    exported = set(_top_level_exports())
    assert exported == {
        "CLASS_CONSENSUS", "CLASS_MARGINAL", "CLASS_SADDLE", "CLASS_SINK", "CLASS_SOURCE",
        "DegreeStats", "ExperimentConfig", "FixedPointReport", "Graph", "InducedMap",
        "InitFamily", "Matrix2", "OpinionState", "STATUS_CONSENSUS", "STATUS_STOPPED",
        "STATUS_TIMEOUT", "ThresholdResult", "Trajectory", "TrialRecord", "VotingRule",
        "analyze", "biased_global", "clustered", "competitive_checks", "degree_stats",
        "derive_seed", "eigen_table", "escape_time", "exact_counts",
        "fixed_point_locations", "generate_sbm",
        "goodness_report", "graph_from_edges", "half_half", "iterate",
        "jacobian_analytic", "load_graph", "make_initial", "make_rule_best_of",
        "make_rule_bo2", "make_rule_bo3", "parse_init_family", "phase_sweep", "r_of_u",
        "random_density", "run_trials", "run_until_consensus",
        "save_graph", "sink_persistence", "state_from_member", "step_probabilities",
        "step_sampling", "threshold_r", "to_alpha", "to_delta", "trajectory_deviation",
        "u_of_r", "w_stat", "worst_case_scan", "write_results_csv", "write_trajectory_csv",
    }


def test_module_all_lists_are_true():
    # perfbench's tracer looks up every __all__ name, so a stale entry would
    # fail only at benchmark time; and each top-level export is declared
    # public by a module that holds the same object
    modules = [importlib.import_module(f"votedyn.{m.name}") for m in pkgutil.iter_modules(vd.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    for name, value in _top_level_exports().items():
        assert any(name in getattr(mod, "__all__", ()) and getattr(mod, name) is value for mod in modules), name


def test_cli_import_loads_no_pool_or_polynomial_module():
    # a fresh process: the command's set-up loads neither numpy's polynomial
    # package nor the process pool, which only a run with workers > 1 imports
    code = (
        "import sys\n"
        "from votedyn import cli_io\n"
        "cli_io.build_parser()\n"
        "print(sorted({'numpy.polynomial', 'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vd.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# --- generate ---


def test_generate_header_and_roundtrip(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["generate", "--n", "20", "--p", "0.4", "--q", "0.1",
                 "--seed", "3", "-o", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first == "sbm 20 0.4 0.1 3"
    g = vd.load_graph(str(out))
    ref = vd.generate_sbm(20, 0.4, 0.1, seed=3)
    assert np.array_equal(g.neighbors, ref.neighbors)
    assert np.array_equal(g.offsets, ref.offsets)


def test_generate_rejects_q_above_p(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main(["generate", "--n", "10", "--p", "0.2", "--q", "0.4",
                 "--seed", "1", "-o", str(out)])
    assert code == 2
    assert "q must not exceed p" in capsys.readouterr().err


def test_memory_error_exits_1_with_one_line(monkeypatch, tmp_path, capsys):
    # an allocation inside a subcommand fails as numpy's does on an oversized
    # request; it ended the run with a traceback
    def no_memory(rng, m, prob, keys, end):
        raise MemoryError("Unable to allocate 19.5 PiB for an array with shape (2,) and data type int64")

    monkeypatch.setattr(vd.sbm_graph, "_sample_pairs", no_memory)
    out = tmp_path / "g.txt"
    code = main(["generate", "--n", "20", "--p", "0.4", "--q", "0.1",
                 "--seed", "3", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "memory error: Unable to allocate 19.5 PiB for an array " \
                           "with shape (2,) and data type int64\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1 2\n", "two integer"),
        ("0 9\n", "out of range"),
        ("2 2\n", "self loops"),
        ("0 1\n1 0\n", "duplicate"),
        ("0 1\n0 1\n", "duplicate"),
        # signs, exponents and over-long ids are rejected, not coerced
        ("-0 1\n", "two integer"),
        ("+1 2\n", "two integer"),
        ("1e3 2\n", "two integer"),
        ("1" * 25 + " 2\n", "out of range"),
        ("0 1\x00\n", "two integer"),
        ("\uff11 2\n", "codec can't decode"),  # not ASCII
    ],
)
def test_bad_graph_file_exits_2(tmp_path, capsys, body, message):
    g = tmp_path / "g.txt"
    g.write_text("sbm 2 0.5 0.1 0\n" + body, encoding="utf-8")
    assert main(["simulate", "--graph", str(g), "--model", "bo3", "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, header, message",
    [
        (["generate", "--n", "100000000", "--p", "0.5", "--q", "0", "--seed", "1"], None,
         "error: n must be at most 16777216, got 100000000\n"),
        # 2(n(n-1)p + n^2 q) = 1e10 expected directed entries
        (["generate", "--n", "100000", "--p", "0.5", "--q", "0", "--seed", "1"], None,
         "error: a graph may hold at most 2147483648 directed entries, this one 1e+10\n"),
        # a 28-byte file whose offsets alone would take 14.6 TiB
        (["simulate", "--model", "bo3", "--seed", "1"], "sbm 1000000000000 0.5 0.1 0\n",
         "error: n must be at most 16777216, got 1000000000000\n"),
    ],
    ids=["n", "entries", "file"],
)
def test_oversized_graph_exits_2_before_allocating(tmp_path, capsys, argv, header, message):
    # each exited 1 with a memory error from numpy's first allocation
    out = tmp_path / "out"
    if header is None:
        argv = [*argv, "-o", str(out)]
    else:
        graph = tmp_path / "g.txt"
        graph.write_text(header, encoding="ascii")
        assert graph.stat().st_size == 28
        argv = [*argv, "--graph", str(graph), "-o", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.err == message and captured.out == ""
    assert not out.exists()
    assert peak < 1 << 20, peak


# --- simulate ---


def test_simulate_deterministic_and_consensus_line(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["generate", "--n", "30", "--p", "0.4", "--q", "0.1",
                 "--seed", "3", "-o", str(g)]) == 0
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--graph", str(g), "--model", "bo3",
            "--init", "biased_global(0.2)", "--max-steps", "50", "--seed", "42"]
    assert main(args + ["-o", str(t1)]) == 0
    assert "consensus at t=" in capsys.readouterr().err
    assert main(args + ["-o", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    last = t1.read_text().strip().splitlines()[-1]
    assert last.startswith("# status=consensus opinion=")


def test_simulate_env_seed(tmp_path, monkeypatch):
    g = tmp_path / "g.txt"
    main(["generate", "--n", "30", "--p", "0.4", "--q", "0.1", "--seed", "3",
          "-o", str(g)])
    base_args = ["simulate", "--graph", str(g), "--model", "bo3",
                 "--init", "biased_global(0.2)", "--max-steps", "50"]
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base_args + ["--seed", "42", "-o", str(t1)]) == 0
    monkeypatch.setenv("VOTEDYN_SEED", "42")
    assert main(base_args + ["-o", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_unknown_rule(tmp_path, capsys):
    g = tmp_path / "g.txt"
    main(["generate", "--n", "10", "--p", "0.4", "--q", "0.1", "--seed", "3",
          "-o", str(g)])
    # only the canonical spelling of a rule name: no leading zeros, ASCII digits
    for model in ("bo9", "best_of_025", "best_of_\uff15"):
        code = main(["simulate", "--graph", str(g), "--model", model, "--seed", "1"])
        assert code == 2
        assert "unknown rule name" in capsys.readouterr().err


def test_simulate_best_of_range(tmp_path, capsys):
    args = ["simulate", "--n", "10", "--p", "0.4", "--q", "0.1", "--graph-seed", "3",
            "--max-steps", "5", "--seed", "1"]
    assert main(args + ["--model", "best_of_27"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule name: 'best_of_27'" in err and "odd m from 3 to 25" in err
    assert main(args + ["--model", "best_of_25", "-o", str(tmp_path / "t.csv")]) == 0


def test_simulate_full_set_is_instant_consensus(tmp_path, capsys):
    t = tmp_path / "t.csv"
    code = main(["simulate", "--n", "25", "--p", "0.4", "--q", "0.1",
                 "--graph-seed", "3", "--model", "bo3",
                 "--init", "exact_counts(25,25)", "--max-steps", "10",
                 "--seed", "1", "-o", str(t)])
    assert code == 0
    lines = t.read_text().strip().splitlines()
    assert lines[-1].endswith("t_cons=0")
    # header, the t=0 row, and the status comment
    assert len(lines) == 3


def test_simulate_rejected_max_steps_leaves_no_file(tmp_path, capsys):
    # the trajectory is written while the run goes, so every check comes
    # before the output file is opened
    out = tmp_path / "f.csv"
    code = main(["simulate", "--n", "5", "--p", "0.5", "--q", "0.1", "--model", "bo3",
                 "--max-steps", "-1", "--seed", "1", "-o", str(out)])
    assert code == 2
    assert "max_steps must be >= 0" in capsys.readouterr().err
    assert not out.exists()


_BAD_INITS = [
    "biased_global(inf)",
    "clustered(inf,0)",
    "exact_counts(inf,0)",
    "exact_counts(1e400,0)",
    "exact_counts(1.5,2)",
    "random_density(nan)",
]


@pytest.mark.parametrize("init", _BAD_INITS)
def test_simulate_rejects_non_finite_or_fractional_init(tmp_path, capsys, init):
    # the first four used to exit 1 with an OverflowError traceback, and
    # exact_counts(1.5,2) ran as (1, 2)
    out = tmp_path / "t.csv"
    code = main(["simulate", "--n", "5", "--p", "0.5", "--q", "0.1", "--model", "bo3",
                 "--init", init, "--seed", "1", "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite parameters" in err or "integer counts" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "worst-case"])
@pytest.mark.parametrize("init", _BAD_INITS)
def test_experiments_reject_bad_init_before_any_trial(tmp_path, monkeypatch, capsys, command, init):
    def no_trials(*_args, **_kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment_harness, "run_trials", no_trials)
    r = ["--r-grid" if command == "sweep" else "--r", "0.2"]
    code = main([command, "--model", "bo3", "--n", "5", "--p", "0.5", *r,
                 "--init", init, "--trials", "1", "-o", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite parameters" in err or "integer counts" in err
    assert not (tmp_path / "out").exists()


# --- analyze ---


def test_analyze_json_structure(capsys):
    assert main(["analyze", "--model", "bo3", "--u", "0.8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "bo3" and doc["u"] == pytest.approx(0.8)
    by_id = {fp["id"]: fp for fp in doc["fixed_points"]}
    assert by_id["d2*"]["class"] == "sink"
    assert by_id["d3*"]["class"] == "saddle"
    assert by_id["d2*"]["location"][0] == pytest.approx(0.8838834764831848)


def test_analyze_below_interior_threshold(capsys):
    assert main(["analyze", "--model", "bo3", "--r", "0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["u"] == pytest.approx(0.6)
    existing = [fp["id"] for fp in doc["fixed_points"] if fp["exists"]]
    assert existing == ["d1*", "d4*"]


def test_analyze_requires_exactly_one_parameter(capsys):
    assert main(["analyze", "--model", "bo3"]) == 2
    assert "exactly one of --r or --u" in capsys.readouterr().err
    assert main(["analyze", "--model", "bo3", "--r", "0.2", "--u", "0.8"]) == 2


def test_analyze_rejects_out_of_range_u(capsys):
    assert main(["analyze", "--model", "bo3", "--u", "1.5"]) == 2


# --- vector-field ---


def test_vector_field_alpha_grid(tmp_path):
    out = tmp_path / "vf.svg"
    assert main(["vector-field", "--model", "bo3", "--r", "0.111111",
                 "--grid-step", "1.0", "--space", "alpha", "-o", str(out)]) == 0
    stats = svg_stats(out)
    assert stats["viewBox"] == "0 0 800 800"
    assert stats["lines"] == 4  # 2x2 corner grid
    assert stats["fp"] == 9  # both mirror images plus center and consensus
    assert stats["filled"] == 4  # two consensus corners and the two axis sinks
    assert len(stats["labels"]) == 9
    assert set(stats["labels"]) == {"d1*", "d2*", "d3*", "d4*"}


def test_vector_field_delta_grid_below_threshold(tmp_path):
    out = tmp_path / "vf.svg"
    assert main(["vector-field", "--model", "bo3", "--r", "0.111111",
                 "--grid-step", "0.2", "--space", "delta", "-o", str(out)]) == 0
    stats = svg_stats(out)
    # quadrant grid: points with d1,d2 >= 0, d1+d2 <= 1 at step 0.2
    assert stats["lines"] == 21
    assert stats["fp"] == 4
    assert stats["filled"] == 2  # axis sink and consensus


def test_vector_field_grid_is_capped(tmp_path, capsys):
    # a step of 0.002 gives 501 points per axis, the most accepted
    cap = vd.cli_io.MAX_GRID_AXIS
    assert cap == 501
    out = tmp_path / "vf.svg"
    # just above the cap, so a missing check stays a small render
    for bad in ("0.0019", "5e-324", "nan", "0"):
        assert main(["vector-field", "--model", "bo3", "--r", "0.1",
                     "--grid-step", bad, "-o", str(out)]) == 2, bad
        assert "error: grid step" in capsys.readouterr().err
    assert not out.exists()


def test_vector_field_delta_grid_above_threshold(tmp_path):
    out = tmp_path / "vf.svg"
    assert main(["vector-field", "--model", "bo3", "--r", "0.166667",
                 "--grid-step", "0.2", "--space", "delta", "-o", str(out)]) == 0
    stats = svg_stats(out)
    assert stats["filled"] == 1  # only consensus remains attracting
    assert stats["fp"] == 3  # d3* does not exist yet at u=5/7


# --- sweep ---


def write_config(tmp_path, **overrides):
    doc = {
        "model": "bo3",
        "n": 80,
        "p": 0.3,
        "init": "biased_global(0.2)",
        "trials": 2,
        "max_steps": 60,
        "r_grid": [0.05, 0.25],
        "master_seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def test_sweep_blocks_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "-o", str(outdir)]) == 0
    err = capsys.readouterr().err
    assert "r=0.05" in err and "r=0.25" in err
    rows = (outdir / "results.csv").read_text().strip().splitlines()
    assert rows[0].startswith("model,n,p,q,r,init")
    assert len(rows) == 1 + 2 * 2  # one header, two r blocks of two trials
    assert sum(1 for row in rows if row.startswith("model,")) == 1
    assert {row.split(",")[4] for row in rows[1:]} == {"0.05", "0.25"}
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["n"] == 80
    assert [blk["r"] for blk in summary["per_r"]] == [0.05, 0.25]
    for blk in summary["per_r"]:
        assert 0.0 <= blk["consensus_fraction"] <= 1.0


def test_sweep_missing_config_is_io_error(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "out")])
    assert code == 1
    assert "io error" in capsys.readouterr().err


def test_sweep_bad_config_field(tmp_path, capsys):
    cfg = write_config(tmp_path, n="eighty")
    code = main(["sweep", "--config", str(cfg), "-o", str(tmp_path / "out")])
    assert code == 2
    assert "config.n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("n", 80.9), ("trials", True), ("max_steps", "60"), ("p", False), ("r_grid", [True, 0.25])],
)
def test_sweep_config_values_are_not_coerced(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, **{field: value})
    code = main(["sweep", "--config", str(cfg), "-o", str(tmp_path / "out")])
    assert code == 2
    assert f"config.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_flags_override_config(tmp_path):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--trials", "3",
                 "--r-grid", "0.25", "-o", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["trials"] == 3
    assert summary["r_grid"] == [0.25]


@pytest.mark.parametrize("command", ["deviation", "sweep"])
def test_unknown_config_keys_are_refused_before_any_trial(tmp_path, monkeypatch, capsys, command):
    # misspelt "trials" and "max_steps" once ran the default 10 trials of 50
    # steps and exited 0
    def no_trials(*_args, **_kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment_harness, "run_trials", no_trials)
    path = tmp_path / "cfg.json"
    path.write_text('{"model": "bo3", "n": 30, "p": 0.4, "r": 0.3, "trails": 3, "max_step": 5}')
    extra = ["--r-grid", "0.3", "-o", str(tmp_path / "out")] if command == "sweep" else []
    assert main([command, "--config", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert "config.max_step" in err and "config.trails" in err
    # r_grid is a sweep key only
    assert main(["deviation", "--config", str(write_config(tmp_path))]) == 2
    assert "config.r_grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SMALL_RUN = ["--model", "bo3", "--n", "20", "--p", "0.5", "--trials", "1"]


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["sink-persist", "--r", "0.05", "--init", "exact_counts(3,3)"], None, "--init"),
        (["sink-persist", "--r", "0.05"], {"init": "half_half"}, "config.init"),
        (["worst-case", "--r", "0.1", "--init", "half_half"], None, "--init"),
        (["worst-case", "--r", "0.1"], {"init": "half_half"}, "config.init"),
        (["escape", "--r", "0.05", "--max-steps", "7", "--budget", "20"], None, "--max-steps"),
        (["escape", "--r", "0.05"], {"max_steps": 7}, "config.max_steps"),
        (["deviation", "--r", "0.3", "--max-steps", "7", "--t-max", "3"], None, "--max-steps"),
        (["deviation", "--r", "0.3"], {"max_steps": 7}, "config.max_steps"),
        (["sweep", "--r", "0.9", "--r-grid", "0.1,0.2"], None, "--r"),
        (["sweep", "--r-grid", "0.1,0.2"], {"r": 0.9}, "config.r"),
    ],
)
def test_a_field_the_driver_sets_is_refused_before_any_trial(tmp_path, monkeypatch, capsys, argv, config, named):
    # each of these ran with the driver's own value, ignored the flag or key
    # and echoed it in the report's config as if it had governed the run
    def no_trials(*_args, **_kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment_harness, "run_trials", no_trials)
    argv = [*argv, *_SMALL_RUN]
    if argv[0] == "sweep":
        argv += ["-o", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{named}: {argv[0]} ignores it" in err
    assert not (tmp_path / "out").exists()


def test_graph_flags_that_would_be_ignored_are_refused(tmp_path, capsys):
    # --graph fixed the graph and --q fixed q, so the other flags were
    # silently dropped
    path = tmp_path / "g.txt"
    vd.save_graph(vd.generate_sbm(3, 0.5, 0.5, seed=1), str(path))
    argv = ["simulate", "--graph", str(path), "--n", "999", "--p", "0.9", "--graph-seed", "4", "--model", "bo3"]
    assert main([*argv, "--max-steps", "2", "-o", str(tmp_path / "t.csv")]) == 2
    assert "--n, --p, --graph-seed: ignored with --graph" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    argv = ["goodness", "--n", "30", "--p", "0.4", "--q", "0.1", "--r", "0.9", "--rule", "bo3", "--samples", "1"]
    assert main(argv) == 2
    assert "exactly one of --q or --r" in capsys.readouterr().err


# --- closed-form commands ---


@pytest.mark.parametrize("command", ["worst-case", "sink-persist"])
def test_model_without_closed_form(command, capsys):
    code = main([command, "--model", "best_of_5", "--n", "40", "--p", "0.3", "--r", "0.05",
                 "--trials", "1", "--max-steps", "5"])
    assert code == 2
    assert "closed forms exist for bo3 and bo2 only" in capsys.readouterr().err


def test_worst_case_csv_one_block_per_family(tmp_path):
    csv_path, out = tmp_path / "wc.csv", tmp_path / "wc.json"
    assert main(["worst-case", "--model", "bo3", "--n", "60", "--p", "0.5", "--r", "0.3",
                 "--trials", "2", "--max-steps", "100", "--seed", "1",
                 "--csv", str(csv_path), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == doc["family_count"] * 2
    assert {row["init"] for row in rows} == set(doc["families"])
    pairs = [(row["init"], row["trial"]) for row in rows]
    assert len(set(pairs)) == len(pairs)


# --- escape ---


def test_escape_rejects_negative_budget(capsys):
    common = ["escape", "--model", "bo3", "--n", "50", "--p", "0.3", "--r", "0.05",
              "--init", "clustered(0.9,0)", "--kappa", "0.95", "--trials", "1"]
    code = main([*common, "--budget", "-1"])
    assert code == 2
    assert "budget must be >= 0" in capsys.readouterr().err
    # the step budget ceil(budget_c * ln n) needs a finite budget_c >= 0
    for bad in ("inf", "nan", "-1"):
        assert main([*common, "--budget-c", bad]) == 2, bad
        assert "--budget-c must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_sink_persist_rejects_bad_epsilon(capsys, bad):
    # nan never compares above a distance, so no trial would ever escape;
    # a non-positive radius marks every trial escaped at t=0
    code = main(["sink-persist", "--model", "bo3", "--n", "20", "--p", "0.4", "--r", "0.05",
                 "--trials", "1", "--max-steps", "5", "--epsilon", bad])
    assert code == 2
    assert "epsilon must be a finite number > 0" in capsys.readouterr().err


# --- goodness ---


def test_goodness_report_file(tmp_path):
    out = tmp_path / "good.json"
    assert main(["goodness", "--n", "60", "--p", "0.3", "--r", "0.3",
                 "--graph-seed", "2", "--rule", "bo3", "--samples", "5",
                 "--seed", "9", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rule"] == "bo3" and doc["n"] == 60 and doc["samples"] == 5
    for key in ("p2_max", "p3_max", "variance_max_dev"):
        assert doc[key] >= 0.0
    assert set(doc["w_max_normalized_dev"]) == {"1", "2", "3"}


@pytest.mark.parametrize(
    "graph, extra, match",
    [
        # ln 1 = 0 divided the default |A| = n/ln n
        (["--n", "1", "--p", "0.5", "--q", "0.1"], [], "n >= 2 and p > 0"),
        # the small-set scale was 0, and the report held a bare Infinity
        (["--n", "1", "--p", "0.5", "--q", "0.1"], ["--sizes", "1"], "n >= 2 and p > 0"),
        # sqrt(n / p) divided by zero
        (["--n", "10", "--p", "0", "--q", "0"], [], "n >= 2 and p > 0"),
        # rejected before any probe runs, not after three of them
        (["--n", "30", "--p", "0.4", "--q", "0.1"], ["--l", "4"], "l must be 1, 2, or 3"),
        (["--n", "30", "--p", "0.4", "--q", "0.1"], ["--sizes", "61"], "sizes must lie in"),
        # N(Np)^(l-1/2) underflowed to 0: a ZeroDivisionError traceback, exit 1
        (["--n", "3", "--p", "1e-300", "--q", "0"], [], "is not a positive finite number"),
        # sqrt(n/p) was inf, and the p2, p3 and variance probes reported 0.0
        (["--n", "3", "--p", "5e-324", "--q", "0"], ["--l", "1"], "sqrt(n/p) = inf"),
    ],
)
def test_goodness_rejects_what_the_probes_cannot_run(monkeypatch, capsys, tmp_path,
                                                     graph, extra, match):
    def no_count(self, mask):
        raise AssertionError("a probe ran before the arguments were checked")

    monkeypatch.setattr(vd.Graph, "count_in", no_count)
    out = tmp_path / "good.json"
    code = main(["goodness", *graph, "--graph-seed", "1", "--rule", "bo3",
                 "--samples", "5", "--seed", "3", *extra, "-o", str(out)])
    assert code == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", [b"0 1\r2 3\n", b"0 1 \r 2 3\n"])
def test_goodness_graph_with_a_lone_carriage_return_exits_2(tmp_path, capsys, body):
    # a carriage return is a blank, so each file holds one line of four ids
    path = tmp_path / "g.txt"
    path.write_bytes(b"sbm 2 0.5 0.5 0\n" + body)
    out = tmp_path / "good.json"
    code = main(["goodness", "--graph", str(path), "--rule", "bo3", "--samples", "5",
                 "--seed", "3", "-o", str(out)])
    assert code == 2
    assert "two integer" in capsys.readouterr().err
    assert not out.exists()


def test_goodness_runs_on_tiny_graph(tmp_path):
    # no constant assertions at this size; the probe just has to complete
    out = tmp_path / "tiny.json"
    assert main(["goodness", "--n", "20", "--p", "0.4", "--q", "0.1",
                 "--graph-seed", "1", "--rule", "bo2", "--samples", "5",
                 "--seed", "3", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 20


# --- README examples ---


def test_readme_cli_examples_parse():
    # every votedyn command of the README's shell blocks, its backslash
    # continuations joined, parses with the real parser; none is run, and
    # every subcommand has an example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = "\n".join(block.split("```")[0] for block in blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("votedyn ")]
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[1] for argv in commands} == set(subcommands.choices)


def test_readme_references_resolve():
    # every backticked dotted name of the README outside its code blocks
    # whose first part is votedyn or one of its modules, such as
    # `sbm_graph.MAX_N` or `votedyn.voting_core`, imports and resolves, so a
    # deleted or renamed name cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    modules = {m.name for m in pkgutil.iter_modules(vd.__path__)}
    checked = set()
    for span in spans:
        ref = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        parts = ref.group().split(".") if ref else []
        if parts[:1] == ["votedyn"]:
            parts = parts[1:]
        if parts[:1] and parts[0] in modules:
            obj = importlib.import_module(f"votedyn.{parts[0]}")
            for attr in parts[1:]:
                assert hasattr(obj, attr), ref.group()
                obj = getattr(obj, attr)
            checked.add(ref.group())
    assert {"votedyn.voting_core", "sbm_graph.MAX_N", "experiment_harness.MAX_WORKERS"} <= checked


# --- argv fuzz ---

# each flag's tiny valid values (None marks a bare switch), and the numbers
# that replace up to two of them in one argv
_VALID = {
    "--n": ["1", "2", "3", "6"],
    "--p": ["0.2", "0.5", "1"],
    "--q": ["0", "0.1"],
    "--r": ["0", "0.3", "1"],
    "--u": ["0.2", "0.5", "0.9"],
    "--seed": ["0", "7"],
    "--graph-seed": ["0", "7"],
    "--model": ["bo3", "bo2", "best_of_5"],
    "--rule": ["bo3", "bo2", "best_of_5"],
    "--init": ["half_half", "biased_global(0.2)", "clustered(0.1,0.05)", "exact_counts(1,1)",
               "random_density(0.5)"],
    "--trials": ["1", "2"],
    "--max-steps": ["0", "5", "20"],
    "--workers": ["1"],
    "--shared-graph": [None],
    "--epsilon": ["0.1", "0.5"],
    "--kappa": ["0.1", "0.2"],
    "--budget": ["0", "5", "20"],
    "--budget-c": ["1", "15"],
    "--t-max": ["0", "5", "20"],
    "--samples": ["1", "5"],
    "--grid-step": ["0.1", "0.25", "1"],
    "--space": ["alpha", "delta"],
    "--l": ["1", "1,2", "3"],
    "--sizes": ["1", "2"],
    "--r-grid": ["0.3", "0,1", "0.1,0.5,1"],
    "--graph": ["g0.txt", "g1.txt"],
    "--config": ["c0.json"],
}
_EDGE = ["nan", "inf", "-inf", "-0.0", "5e-324", "1e308", "-1", str(2**63)]
_EDGE_LIST = st.lists(st.sampled_from(_EDGE + ["0", "1", "2"]), min_size=1, max_size=3).map(",".join)
_BAD = {
    "--model": st.sampled_from(["best_of_05", "best_of_27", "bo4", ""]),
    "--init": st.one_of(
        st.sampled_from(["clustered(", "exact_counts(1.5,1)", "", "bogus(1)", "half_half(1)"]),
        st.builds(
            lambda kind, params: f"{kind}({','.join(params)})",
            st.sampled_from(["biased_global", "clustered", "exact_counts", "random_density"]),
            st.lists(st.sampled_from(_EDGE + ["0", "0.2", "3"]), max_size=3),
        ),
    ),
    "--space": st.just("beta"),
    "--l": _EDGE_LIST,
    "--sizes": _EDGE_LIST,
    "--r-grid": _EDGE_LIST,
    "--graph": st.sampled_from(["g2.txt", "g3.txt"]),
    "--config": st.sampled_from(["c1.json", "c2.json", "c3.json"]),
}
_BAD["--rule"] = _BAD["--model"]
_EXPERIMENT = ["--config", "--model", "--n", "--p", "--r", "--init", "--seed", "--shared-graph", "--workers"]
# per subcommand: the flags always given, the flags given or not, and an
# output; trials and steps are always given, so no run falls back to the
# defaults' thousands of steps
_COMMANDS = {
    "generate": (["--n", "--p", "--q"], ["--seed"], ["-o", "out.txt"]),
    "simulate": (["--model", "--max-steps"], ["--init", "--seed"], []),
    "analyze": (["--model"], ["--r", "--u"], []),
    "vector-field": (["--model", "--r"], ["--grid-step", "--space"], []),
    "sweep": (["--trials", "--max-steps"], [*_EXPERIMENT, "--r-grid"], ["-o", "outdir"]),
    "sink-persist": (["--trials", "--max-steps"], [*_EXPERIMENT, "--epsilon"], []),
    "escape": (["--trials", "--budget"], [*_EXPERIMENT, "--kappa", "--budget-c"], []),
    "worst-case": (["--trials", "--max-steps"], _EXPERIMENT, ["--csv", "out.csv"]),
    "deviation": (["--trials", "--t-max"], _EXPERIMENT, []),
    "goodness": (["--rule", "--samples"], ["--l", "--sizes", "--seed"], []),
}
# a graph file alone, or inline parameters with exactly one of --q and --r
_GRAPH_SOURCES = [
    (["--graph"], []),
    (["--n", "--p", "--q"], ["--graph-seed"]),
    (["--n", "--p", "--r"], ["--graph-seed"]),
]
_JSON_STDOUT = {"analyze", "sink-persist", "escape", "worst-case", "deviation", "goodness"}
# flags that set how much work a run does: only these may keep it running
_WORK_FLAGS = {"--max-steps", "--samples", "--budget", "--budget-c", "--t-max"}


def _draw_argv(data, d) -> list[str]:
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, output = _COMMANDS[command]
    if command in ("simulate", "goodness"):
        source = data.draw(st.sampled_from(_GRAPH_SOURCES))
        required, optional = [*source[0], *required], [*source[1], *optional]
    flags = required + [f for f in optional if data.draw(st.booleans())]
    values = [data.draw(st.sampled_from(_VALID[f])) for f in flags]
    for i in data.draw(st.sets(st.sampled_from(range(len(flags))), max_size=2)):
        if values[i] is not None:
            values[i] = data.draw(_BAD.get(flags[i], st.sampled_from(_EDGE)))
    argv = [command]
    for flag, value in zip(flags, values):
        if flag in ("--graph", "--config"):
            value = str(d / value)
        argv += [flag] if value is None else [flag, value]
    return argv + [str(d / tok) if tok.startswith("out") else tok for tok in output]


class _Slow(BaseException):
    # not an Exception, so main cannot report it as an exit code
    pass


def _slow(signum, frame):
    raise _Slow


def _no_constant(name):
    raise ValueError(f"JSON holds {name}")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # the graph and config files the fuzz names: one valid of each, the rest bad
    d = tmp_path_factory.mktemp("fuzz")
    vd.save_graph(vd.generate_sbm(2, 0.5, 0.5, seed=1), str(d / "g0.txt"))
    (d / "g1.txt").write_text("sbm 3 0.5 0 1\n")  # every vertex isolated
    (d / "g2.txt").write_text("sbm 2 nan 0.1 0\n0 1\n")
    (d / "g3.txt").write_text(f"sbm {2**63} 0.5 0.1 0\n")
    for k, text in enumerate([
        '{"model": "bo3", "n": 2, "p": 0.5, "r": 0.5, "init": "half_half"}',
        '{"model": "bo2", "n": 1e308, "p": NaN, "r": Infinity}',
        '{"model": "bo3", "n": 9223372036854775808, "p": 0.5, "r": 0.5, "workers": true}',
        "[1, 2",
    ]):
        (d / f"c{k}.json").write_text(text)
    return d


@settings(max_examples=600, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_exits_0_or_2_with_strict_json(fuzz_dir, data):
    # every subcommand on tiny sizes with up to two adversarial values: a
    # run either succeeds with finite JSON or is refused with exit 2, never
    # with a traceback or exit 1; a run still going after the alarm must
    # have asked for a huge amount of work
    argv = _draw_argv(data, fuzz_dir)
    out, err = io.StringIO(), io.StringIO()
    old = signal.signal(signal.SIGALRM, _slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    except _Slow:
        huge = [a for a, v in zip(argv, argv[1:]) if a in _WORK_FLAGS and v in ("1e308", str(2**63))]
        assert huge, f"still running after 2 s: {argv}"
        return
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        texts = [out.getvalue()] if argv[0] in _JSON_STDOUT else []
        if argv[0] == "sweep":
            texts.append((fuzz_dir / "outdir" / "summary.json").read_text())
        for text in texts:
            json.loads(text, parse_constant=_no_constant)
