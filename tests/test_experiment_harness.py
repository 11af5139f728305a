"""Seed derivation, trial running, and the phenomenon-level experiment drivers."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import tracemalloc
from dataclasses import replace

import pytest

import votedyn as vd
from votedyn import (
    ExperimentConfig,
    TrialRecord,
    VotingRule,
    derive_seed,
    escape_time,
    fixed_point_locations,
    phase_sweep,
    run_trials,
    sink_persistence,
    trajectory_deviation,
    u_of_r,
    worst_case_scan,
    write_results_csv,
)
from votedyn import experiment_harness
from votedyn.cli_io import main
from votedyn.experiment_harness import MAX_TRIALS, MAX_WORKERS, RESULTS_HEADER, adversarial_families


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool sizes asked for
    and maps in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        model="bo3",
        n=100,
        p=0.3,
        r=0.3,
        init="biased_global(0.2)",
        trials=4,
        max_steps=100,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- seeds and budgets ---


def test_derive_seed_recipe():
    got = derive_seed(0xC0FFEE, "alpha", 3)
    # each part as text, prefixed by its byte length in 8 big-endian bytes
    data = b"".join(len(t).to_bytes(8, "big") + t for t in (b"12648430", b"alpha", b"3"))
    want = int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
    assert got == want
    assert 0 <= got < 2**64


def test_derive_seed_sensitivity():
    base = derive_seed(1, "x", 0)
    assert derive_seed(1, "x", 0) == base
    assert derive_seed(2, "x", 0) != base
    assert derive_seed(1, "y", 0) != base
    assert derive_seed(1, "x", 1) != base
    assert derive_seed(1, "x") != base
    # parts may contain any separator; the split between them still counts
    assert derive_seed(1, "a:b", "c") != derive_seed(1, "a", "b:c")
    assert derive_seed(1, "ab", "") != derive_seed(1, "a", "b")


def test_rule_from_name():
    assert VotingRule("bo3").name == "bo3"
    assert VotingRule("bo2").name == "bo2"
    assert VotingRule("best_of_5").name == "best_of_5"
    assert VotingRule("best_of_25").name == "best_of_25"
    assert [VotingRule(name).draws for name in ("bo2", "bo3", "best_of_5", "best_of_25")] == [2, 3, 5, 25]
    for bad in ("bo7", "best_of_4", "best_of_1", "best_of_27", "poly"):
        with pytest.raises(ValueError):
            VotingRule(bad)


# --- config validation ---


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(model="bo7")
    with pytest.raises(ValueError):
        small_cfg(n=0)
    with pytest.raises(ValueError):
        small_cfg(p=1.5)
    with pytest.raises(ValueError):
        small_cfg(r=1.5)
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(max_steps=-1)
    with pytest.raises(ValueError):
        small_cfg(workers=0)
    assert small_cfg(workers=MAX_WORKERS).workers == MAX_WORKERS
    with pytest.raises(ValueError, match="workers"):
        small_cfg(workers=MAX_WORKERS + 1)
    assert small_cfg(trials=MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(ValueError, match="trials"):
        small_cfg(trials=MAX_TRIALS + 1)
    # trials=2.0 passed construction and failed in run_trials with a
    # TypeError; n=True was taken for n = 1
    for field, value in (("n", True), ("trials", 2.0), ("max_steps", 10.5), ("workers", 1.0)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_cfg(**{field: value})


def test_a_fractional_budget_or_step_count_is_refused_before_any_trial(monkeypatch):
    # a budget of 2.5 steps became the trials' max_steps, which the run loop
    # never meets
    def no_trials(*_args, **_kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment_harness, "run_trials", no_trials)
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        escape_time(small_cfg(), kappa=0.2, budget=2.5)
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        trajectory_deviation(small_cfg(), t_max=2.5)


# --- run_trials ---


def test_run_trials_deterministic_and_exp_id_scoped():
    cfg = small_cfg()
    a = run_trials(cfg, "exp1")
    b = run_trials(cfg, "exp1")
    c = run_trials(cfg, "exp2")
    assert a == b
    assert [r.seed for r in a] != [r.seed for r in c]
    assert len(a) == cfg.trials
    assert all(rec.trial == i for i, rec in enumerate(a))


def test_mode_params_never_become_trial_fields():
    # a mode parameter named like a trial field once overwrote that field
    cfg = small_cfg(trials=2, max_steps=20)
    plain = run_trials(cfg, "exp1", mode="escape", mode_params={"kappa": 0.5})
    clash = {"kappa": 0.5, "seed": 1, "n": 3, "trial": 9, "max_steps": 0}
    assert run_trials(cfg, "exp1", mode="escape", mode_params=clash) == plain


def test_run_trials_workers_byte_identical():
    cfg = small_cfg()
    assert run_trials(replace(cfg, workers=2), "exp1") == run_trials(cfg, "exp1")


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = small_cfg(trials=2, max_steps=5)
    serial = run_trials(cfg, "exp1")
    # 2 trials in 2 chunks of 1; 5 trials for 4 workers in 3 chunks of at most 2
    assert run_trials(replace(cfg, workers=MAX_WORKERS), "exp1") == serial
    assert run_trials(replace(cfg, workers=4, trials=5), "exp1")[:2] == serial
    assert _InlinePool.sizes == [2, 3]


def test_cli_rejects_workers_above_the_cap(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    code = main(["sweep", "--model", "bo3", "--n", "20", "--p", "0.4", "--trials", "2",
                 "--max-steps", "5", "--r-grid", "0.3", "--workers", str(MAX_WORKERS + 1),
                 "-o", str(tmp_path / "sweep")])
    assert code == 2
    assert f"workers must lie in [1, {MAX_WORKERS}]" in capsys.readouterr().err
    assert _InlinePool.sizes == []


def test_cli_rejects_trials_above_the_cap_before_any_task(monkeypatch, capsys):
    # 2**63 trials once grew the task list until MemoryError; the cap is
    # checked when the config is built, before any task or allocation. Should
    # the check go, the run fails at once instead of growing
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiment_harness, "run_trials", no_run)
    tracemalloc.start()
    try:
        code = main(["sink-persist", "--model", "bo3", "--n", "6", "--p", "0.5", "--r", "0.1",
                     "--trials", str(2**63), "--max-steps", "5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"trials must lie in [1, {MAX_TRIALS}]" in capsys.readouterr().err
    assert peak < 1 << 20


def _transient_bytes(trials: int) -> int:
    # peak traced memory of one run at n = 2 above what it still holds at
    # the end, the records it returns
    cfg = ExperimentConfig(model="bo3", n=2, p=0.5, r=0.5, init="half_half", trials=trials, max_steps=5)
    tracemalloc.start()
    try:
        records = run_trials(cfg, "bookkeeping")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == trials
    return peak - kept


def test_run_trials_keeps_no_per_trial_bookkeeping():
    # beyond the records, a run holds one trial's graph and state at a time,
    # whatever the trial count (about 265 kB at n = 2, mostly the sampler's
    # first neighbour-array growth step of BUILD_BLOCK entries): 1,500 trials
    # measured within 3 B per trial of one trial, where per-trial task dicts
    # held about 523 B per trial more
    one, many = _transient_bytes(1), _transient_bytes(1_500)
    assert (many - one) / 1_499 < 16, (one, many)


def test_run_trials_shared_graph():
    cfg = small_cfg(shared_graph=True)
    recs = run_trials(cfg, "exp1")
    assert len(recs) == 4 and all(not r.timeout for r in recs)
    assert run_trials(replace(cfg, workers=2), "exp1") == recs


def test_run_trials_accepts_parsed_and_string_inits():
    cfg = small_cfg()
    via_string = run_trials(cfg, "exp1")
    via_family = run_trials(replace(cfg, init=vd.biased_global(0.2)), "exp1")
    assert via_string == via_family
    # a string init is parsed once, at construction, into its one spelling
    cfg = small_cfg(init="biased_global(0.20)", trials=1, max_steps=5)
    assert cfg.init == vd.biased_global(0.2)
    buf = io.StringIO()
    write_results_csv(cfg, run_trials(cfg, "exp1"), buf)
    assert next(csv.DictReader(io.StringIO(buf.getvalue())))["init"] == "biased_global(0.2)"
    with pytest.raises(ValueError):
        small_cfg(init="nonsense(1)")


def test_run_trials_without_init_raises():
    with pytest.raises(ValueError):
        run_trials(small_cfg(init=None), "exp1")


# --- sweeps and phenomenon drivers ---


def test_phase_sweep_rows():
    rows = phase_sweep(small_cfg(n=80, trials=3, max_steps=60), [0.05, 0.25])
    assert [row["r"] for row in rows] == [0.05, 0.25]
    for row in rows:
        assert row["trials"] == 3
        assert 0.0 <= row["consensus_fraction"] <= 1.0
        assert row["timeouts"] == sum(rec.timeout for rec in row["records"])
        assert len(row["records"]) == 3


def test_phase_sweep_checks_every_r_before_any_trial(monkeypatch):
    calls = []

    def one_record(cfg, exp_id):
        calls.append(cfg.r)
        return [TrialRecord(trial=0, seed=0, t_cons=1, timeout=False, final_opinion=1, peak_abs_delta2=0.0)]

    monkeypatch.setattr(experiment_harness, "run_trials", one_record)
    with pytest.raises(ValueError, match=r"r must lie in \[0,1\]"):
        phase_sweep(small_cfg(), [0.05, 0.2, 1.5])
    assert calls == []


def test_sink_persistence_below_threshold():
    cfg = small_cfg(n=150, r=0.05, init=None, trials=3, max_steps=300, master_seed=5)
    rep = sink_persistence(cfg, epsilon=0.1)
    assert rep["escape_fraction"] == 0.0
    assert rep["consensus_fraction"] == 0.0
    want_center = fixed_point_locations("bo3", u_of_r(0.05))["d2*"]
    assert rep["center"] == pytest.approx(want_center, abs=1e-12)
    assert rep["horizon"] == 300 and rep["trials"] == 3


def test_sink_persistence_refuses_above_threshold():
    with pytest.raises(ValueError, match="threshold"):
        sink_persistence(small_cfg(r=0.3, init=None))


def test_escape_time_from_sink_stays_put():
    cfg = small_cfg(
        n=150, r=0.05, init="clustered(0.98,0)", trials=3, max_steps=300, master_seed=5
    )
    rep = escape_time(cfg, kappa=0.5, budget=120)
    assert rep["taus"] == [None, None, None]
    assert rep["all_within_budget"] is False
    assert rep["median_tau"] is None and rep["max_tau"] is None


def test_escape_time_trivial_start_outside_ball():
    cfg = small_cfg(
        n=150, r=0.05, init="clustered(0,0.5)", trials=2, max_steps=100, master_seed=5
    )
    rep = escape_time(cfg, kappa=0.3, budget=50)
    assert rep["taus"] == [0, 0]
    assert rep["median_tau"] == 0.0 and rep["max_tau"] == 0
    assert rep["all_within_budget"] is True


def test_escape_time_kappa_validation():
    cfg = small_cfg(n=150, r=0.05, init="clustered(0,0.5)")
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            escape_time(cfg, kappa=bad, budget=10)


def test_trajectory_deviation_fields():
    cfg = small_cfg(n=200, init="biased_global(0.1)", trials=4, max_steps=50, master_seed=5)
    rep = trajectory_deviation(cfg, t_max=5)
    assert rep["n"] == 200 and rep["trials"] == 4 and rep["t_max"] == 5
    assert len(rep["per_step_max"]) == 6 and rep["per_step_max"][0] == 0.0
    assert len(rep["per_trial_max"]) == 4
    want_bound = 1.0 / math.sqrt(200 * 0.3) + math.sqrt(math.log(200) / 200)
    assert rep["bound"] == pytest.approx(want_bound, abs=1e-12)
    assert rep["max_deviation"] == max(rep["per_trial_max"])
    assert rep["max_ratio"] == pytest.approx(rep["max_deviation"] / rep["bound"])


def test_adversarial_families_cover_fixed_points():
    fams = adversarial_families("bo3", 0.8, 1000)
    names = [str(f) for f in fams]
    assert len(fams) >= 12
    d2 = fixed_point_locations("bo3", 0.8)["d2*"][0]
    assert any(f"clustered({d2:.9g},0)" in s or "clustered(0.883" in s for s in names)
    assert "exact_counts(1000,1000)" in names
    # below the lower threshold only the consensus points remain
    assert len(adversarial_families("bo3", 0.5, 1000)) >= 12


@pytest.mark.parametrize("model, u", [("bo3", u_of_r(0.2)), ("bo2", 0.5)])
def test_adversarial_families_are_distinct(model, u):
    # here the axis fixed point d2* sits at the origin, d1 = 0
    assert u == pytest.approx({"bo3": 2 / 3, "bo2": 0.5}[model])
    fams = adversarial_families(model, u, 30)
    assert len(set(map(str, fams))) == len(fams) == 17


def test_worst_case_scan():
    cfg = small_cfg(n=120, r=0.25, init=None, trials=2, max_steps=200, master_seed=5)
    rep = worst_case_scan(cfg)
    assert rep["family_count"] >= 12
    assert rep["total_trials"] == rep["family_count"] * 2
    assert rep["all_consensus"] is True
    stats = rep["families"]["exact_counts(120,120)"]
    assert stats["max_t_cons"] == 0 and stats["consensus_fraction"] == 1.0
    assert rep["max_t_cons"] == max(s["max_t_cons"] for s in rep["families"].values())


# --- results CSV ---


def test_write_results_csv_schema():
    cfg = small_cfg(n=80, trials=3, max_steps=60)
    recs = run_trials(cfg, "exp1")
    buf = io.StringIO()
    write_results_csv(cfg, recs, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 1 + 3
    row = lines[1].split(",")
    cols = RESULTS_HEADER.split(",")
    assert len(row) == len(cols)
    as_dict = dict(zip(cols, row))
    assert as_dict["model"] == "bo3" and int(as_dict["n"]) == 80
    assert float(as_dict["p"]) == 0.3
    assert float(as_dict["q"]) == pytest.approx(0.3 * 0.3)
    assert as_dict["init"] == "biased_global(0.2)"
    assert as_dict["timeout"] in ("0", "1")


def test_write_results_csv_blank_fields_on_timeout():
    cfg = small_cfg(n=80, trials=2, max_steps=1, init="clustered(0,0)")
    recs = run_trials(cfg, "exp1")
    assert any(r.timeout for r in recs)
    buf = io.StringIO()
    write_results_csv(cfg, recs, buf)
    buf.seek(0)
    rows = list(csv.DictReader(buf))
    assert len(rows) == len(recs)
    for as_dict, rec in zip(rows, recs):
        assert as_dict["init"] == "clustered(0,0)"
        if rec.timeout:
            assert as_dict["t_cons"] == "" and as_dict["final_opinion"] == ""
            assert as_dict["timeout"] == "1"


def test_write_results_csv_no_header_append():
    cfg = small_cfg(n=80, trials=1, max_steps=60)
    recs = run_trials(cfg, "exp1")
    buf = io.StringIO()
    write_results_csv(cfg, recs, buf, header=False)
    assert not buf.getvalue().startswith("model")


def _sink_trial_peak(steps: int) -> int:
    # one sink trial on an edgeless graph (n = 1 has no intra pairs and r = 0
    # no cross pairs) whose two vertices hold opposite opinions for ever: it
    # stays at the centre and runs its whole horizon
    cfg = ExperimentConfig(
        model="bo3", n=1, p=0.5, r=0.0, init=vd.exact_counts(1, 0), trials=1, max_steps=steps
    )
    tracemalloc.start()
    try:
        (rec,) = run_trials(
            cfg, "memory", mode="sink", mode_params={"center": (1.0, 0.0), "epsilon": 0.5}
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.timeout and rec.escaped_at is None and rec.peak_abs_delta2 == 0.0
    return peak


def test_sink_trial_memory_does_not_grow_with_the_horizon():
    # the run loop keeps nothing per step: ten times the horizon stays within
    # 1 MiB of peak traced memory (a per-step record list grew it by ~7 MiB)
    small = _sink_trial_peak(5_000)
    large = _sink_trial_peak(50_000)
    assert large - small < 1 << 20, (small, large)
