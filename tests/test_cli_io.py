"""Command-line interface: exit codes, file formats, and flag precedence."""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import votedyn as vd
from votedyn import experiment_harness
from votedyn.cli_io import main


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


def test_goodness_runs_on_tiny_graph(tmp_path):
    # no constant assertions at this size; the probe just has to complete
    out = tmp_path / "tiny.json"
    assert main(["goodness", "--n", "20", "--p", "0.4", "--q", "0.1",
                 "--graph-seed", "1", "--rule", "bo2", "--samples", "5",
                 "--seed", "3", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 20
