"""Multi-trial Monte Carlo experiments over the voting processes.

Every experiment derives one independent seed per trial from the master seed,
the experiment id, and the trial index, so results are byte-identical for a
given config regardless of worker count or execution order. Graphs are
regenerated per trial by default; shared_graph reuses one graph across trials
(the quenched setting the theory quantifies over).

Timeouts are results, not errors. Step-budget constants are pilot-calibrated
and live with the callers; nothing here inherits asymptotic constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import csv
import functools
import hashlib
import math
import numbers

import numpy as np

from . import fixed_point_analysis as fpa
from . import induced_dynamics as idyn
from . import sbm_graph
from . import voting_core as vc

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "derive_seed",
    "run_trials",
    "phase_sweep",
    "sink_persistence",
    "trajectory_deviation",
    "escape_time",
    "worst_case_scan",
    "adversarial_families",
    "write_results_csv",
    "RESULTS_HEADER",
]

RESULTS_HEADER = "model,n,p,q,r,init,trial,seed,t_cons,timeout,final_opinion,peak_abs_delta2"
# a fixed cap on worker processes, so which configs are accepted does not
# depend on the host; a pool never has more workers than chunks of trials
MAX_WORKERS = 64
# a fixed cap on trials per run, checked before any trial runs: a run holds
# its records and one trial at a time, a tracemalloc peak of about 261 B per
# trial (50,000 trials at n = 2), so the cap bounds that bookkeeping at about
# 26 MB, and it is 2,000 times the largest trial count of the acceptance
# battery (50)
MAX_TRIALS = 100_000


def derive_seed(master_seed: int, *parts) -> int:
    """First 8 bytes (big-endian) of a sha256 over the master seed and each
    part as UTF-8 text, each prefixed by its byte length as 8 big-endian
    bytes, so no two lists of part texts hash the same bytes."""
    h = hashlib.sha256()
    for text in [str(int(master_seed)), *map(str, parts)]:
        data = text.encode()
        h.update(len(data).to_bytes(8, "big") + data)
    return int.from_bytes(h.digest()[:8], "big")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    n: int
    p: float
    r: float
    init: vc.InitFamily | None = None
    trials: int = 10
    max_steps: int = 1000
    master_seed: int = 0xC0FFEE
    shared_graph: bool = False
    workers: int = 1

    def __post_init__(self):
        # a bool is a number to Python, but never a probability or a ratio
        for name in ("p", "r"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.shared_graph, bool):
            raise ValueError(f"shared_graph must be a bool, got {self.shared_graph!r}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("r must lie in [0,1]")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0,1]")
        for name in ("n", "trials", "max_steps", "workers", "master_seed"):
            sbm_graph._require_int(name, getattr(self, name))
        if self.n < 1 or self.max_steps < 0:
            raise ValueError("n >= 1; max_steps >= 0")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {self.trials}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {self.workers}")
        vc.VotingRule(self.model)  # validates the name
        if isinstance(self.init, str):
            object.__setattr__(self, "init", vc.parse_init_family(self.init))

    @property
    def q(self) -> float:
        return self.r * self.p

    @property
    def u(self) -> float:
        return idyn.u_of_r(self.r)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    t_cons: int | None
    timeout: bool
    final_opinion: int | None
    peak_abs_delta2: float
    tau_kappa: int | None = None
    escaped_at: int | None = None
    alphas: list | None = field(default=None, repr=False)


def _run_one(cfg: ExperimentConfig, exp_id: str, shared, mode: str, params: dict, trial: int) -> TrialRecord:
    # a trial's seeds depend only on the config, the experiment id and the
    # trial index; mode parameters are read by name and never become fields
    g = shared
    if g is None:
        g = sbm_graph.generate_sbm(
            cfg.n, cfg.p, cfg.q, derive_seed(cfg.master_seed, exp_id, "graph", trial)
        )
    seed = derive_seed(cfg.master_seed, exp_id, trial)
    rng = np.random.Generator(np.random.Philox(seed))
    s = vc.make_initial(g, cfg.init, rng)
    rule = vc.VotingRule(cfg.model)
    peak = 0.0
    alphas = [] if mode == "deviation" else None

    def observe(_t, a1, a2):
        # peak |delta2| so far; true at the stopping event of an escape or
        # sink trial
        nonlocal peak
        d1, d2 = vc.to_delta(a1, a2)
        peak = max(peak, abs(d2))
        if alphas is not None:
            alphas.append((a1, a2))
        if mode == "escape":
            return abs(d2) > params["kappa"]
        if mode == "sink":
            (c1, c2), epsilon = params["center"], params["epsilon"]
            return math.hypot(d1 - c1, d2 - c2) > epsilon
        return False

    traj = vc.run_until_consensus(g, s, rule, cfg.max_steps, rng, observe=observe)
    stopped_at = traj.steps_run if traj.status == vc.STATUS_STOPPED else None
    return TrialRecord(
        trial=trial,
        seed=seed,
        t_cons=traj.t_cons,
        timeout=traj.t_cons is None,
        final_opinion=traj.final_opinion,
        peak_abs_delta2=peak,
        tau_kappa=stopped_at if mode == "escape" else None,
        escaped_at=stopped_at if mode == "sink" else None,
        alphas=alphas,
    )


def run_trials(
    cfg: ExperimentConfig,
    exp_id: str,
    mode: str = "consensus",
    mode_params: dict | None = None,
) -> list[TrialRecord]:
    """Execute cfg.trials independent trials of one experiment, in trial
    order. Worker count never changes the records."""
    if cfg.init is None:
        raise ValueError("no init family configured")
    shared = None
    if cfg.shared_graph:
        shared = sbm_graph.generate_sbm(
            cfg.n, cfg.p, cfg.q, derive_seed(cfg.master_seed, exp_id, "graph", 0)
        )
    run_one = functools.partial(_run_one, cfg, exp_id, shared, mode, mode_params or {})
    if cfg.workers == 1:
        return [run_one(trial) for trial in range(cfg.trials)]
    # imported here, so a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # one chunk per worker, so a shared graph is pickled once per worker;
    # map yields in trial order
    chunk = -(-cfg.trials // cfg.workers)
    with ProcessPoolExecutor(max_workers=-(-cfg.trials // chunk)) as pool:
        return list(pool.map(run_one, range(cfg.trials), chunksize=chunk))


def _consensus_stats(records: list[TrialRecord]) -> dict:
    times = [rec.t_cons for rec in records if rec.t_cons is not None]
    return {
        "trials": len(records),
        "consensus_fraction": len(times) / len(records),
        "median_t_cons": float(np.median(times)) if times else None,
        "max_t_cons": max(times) if times else None,
        "timeouts": len(records) - len(times),
    }


def phase_sweep(cfg: ExperimentConfig, r_grid) -> list[dict]:
    """Consensus statistics per r, at fixed n, p, init, and step budget."""
    # every r is validated before the first trial runs
    subs = [replace(cfg, r=float(r)) for r in r_grid]
    out = []
    for sub in subs:
        records = run_trials(sub, f"phase:r={sub.r:.9g}")
        out.append({**_consensus_stats(records), "r": sub.r, "records": records})
    return out


def sink_persistence(cfg: ExperimentConfig, epsilon: float = 0.1) -> dict:
    """Escape/consensus fractions for trials started at the axis sink.

    Only meaningful below the model's threshold (the axis point must be a
    sink); refuses to run otherwise. Trials stop at their first exit from
    the epsilon-ball (Euclidean, delta coordinates) around the closed-form
    point, so consensus is only observed if it happens while inside.
    epsilon must be a finite number > 0.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon}")
    r_star = fpa.threshold_r(cfg.model).analytic_r
    if cfg.r >= r_star:
        raise ValueError(
            f"r={cfg.r:.6g} is not below the {cfg.model} threshold "
            f"{r_star:.6g}; the axis point is not a sink there"
        )
    center = fpa.fixed_point_locations(cfg.model, cfg.u)["d2*"]
    init = vc.clustered(center[0], center[1])
    exp_id = f"sink:r={cfg.r:.9g}:eps={epsilon:.9g}"
    records = run_trials(
        replace(cfg, init=init), exp_id, mode="sink",
        mode_params={"center": center, "epsilon": epsilon},
    )
    escapes = sum(1 for rec in records if rec.escaped_at is not None)
    consensus = sum(1 for rec in records if rec.t_cons is not None)
    return {
        "model": cfg.model,
        "r": cfg.r,
        "epsilon": epsilon,
        "horizon": cfg.max_steps,
        "center": center,
        "trials": len(records),
        "escape_fraction": escapes / len(records),
        "consensus_fraction": consensus / len(records),
        "records": records,
    }


def trajectory_deviation(cfg: ExperimentConfig, t_max: int) -> dict:
    """Sup-norm gap per step between the stochastic community fractions and
    the induced-map orbit started from the same realized initial fractions."""
    if not 0 <= t_max <= 50:
        raise ValueError("t_max must lie in [0, 50]")
    exp_id = f"deviation:t={t_max}"
    records = run_trials(replace(cfg, max_steps=t_max), exp_id, mode="deviation")
    m = idyn.InducedMap(vc.VotingRule(cfg.model), cfg.r)
    per_step = np.zeros((len(records), t_max + 1))
    for k, rec in enumerate(records):
        orbit = idyn.iterate(m.alpha, rec.alphas[0], t_max)
        for t, (a1, a2) in enumerate(rec.alphas):
            per_step[k, t] = max(abs(a1 - orbit[t, 0]), abs(a2 - orbit[t, 1]))
    bound = 1.0 / math.sqrt(cfg.n * cfg.p) + math.sqrt(math.log(cfg.n) / cfg.n)
    per_trial_max = per_step.max(axis=1)
    return {
        "model": cfg.model,
        "n": cfg.n,
        "t_max": t_max,
        "trials": len(records),
        "bound": bound,
        "per_step_max": per_step.max(axis=0).tolist(),
        "per_step_median": np.median(per_step, axis=0).tolist(),
        "per_trial_max": per_trial_max.tolist(),
        "median_trial_max": float(np.median(per_trial_max)),
        "max_deviation": float(per_step.max()),
        "max_ratio": float(per_step.max() / bound),
    }


def escape_time(cfg: ExperimentConfig, kappa: float, budget: int) -> dict:
    """First step at which |delta2| exceeds kappa, per trial, capped at budget."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0,1)")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    exp_id = f"escape:kappa={kappa:.9g}"
    records = run_trials(
        replace(cfg, max_steps=budget), exp_id, mode="escape", mode_params={"kappa": kappa}
    )
    taus = [rec.tau_kappa for rec in records]
    reached = [t for t in taus if t is not None]
    return {
        "model": cfg.model,
        "kappa": kappa,
        "budget": budget,
        "trials": len(records),
        "all_within_budget": len(reached) == len(records),
        "median_tau": float(np.median(reached)) if reached else None,
        "max_tau": max(reached) if reached else None,
        "taus": taus,
        "records": records,
    }


def adversarial_families(model: str, u: float, n: int) -> list[vc.InitFamily]:
    """Initial-condition families probing every fixed point plus random and
    extreme starts; the worst-case scan runs all of them."""
    families = [
        vc.half_half(),
        vc.biased_global(0.1),
        vc.biased_global(-0.1),
        vc.clustered(0.0, 0.0),
        vc.clustered(0.0, 0.05),
        vc.clustered(0.0, 0.9),
        vc.exact_counts(n, n),
        vc.exact_counts(0, 0),
    ]
    locs = fpa.fixed_point_locations(model, u)
    for fp in ("d2*", "d3*"):
        # a point with d1 = 0 is its own mirror image and lies on the d2 axis
        if fp in locs and locs[fp][0] != 0.0:
            d1, d2 = locs[fp]
            families += [vc.clustered(d1, d2), vc.clustered(-d1, d2)]
    for rho in np.arange(0.1, 0.95, 0.1):
        families.append(vc.random_density(round(float(rho), 2)))
    return families


def worst_case_scan(cfg: ExperimentConfig) -> dict:
    """Consensus statistics across the adversarial family list. records holds
    one (family, records) pair per family, in family order."""
    families = adversarial_families(cfg.model, cfg.u, cfg.n)
    blocks = [
        (family, run_trials(replace(cfg, init=family), f"worst:{family}")) for family in families
    ]
    per_family = {str(family): _consensus_stats(records) for family, records in blocks}
    all_records = [rec for _family, records in blocks for rec in records]
    times = [rec.t_cons for rec in all_records if rec.t_cons is not None]
    return {
        "model": cfg.model,
        "n": cfg.n,
        "families": per_family,
        "family_count": len(families),
        "total_trials": len(all_records),
        "all_consensus": len(times) == len(all_records),
        "max_t_cons": max(times) if times else None,
        "records": blocks,
    }


def write_results_csv(cfg: ExperimentConfig, records, fh, header: bool = True) -> None:
    """One row per trial in the stable column order; blank fields where a
    value does not apply (t_cons on timeout, final_opinion without consensus).
    Set header=False to append another block to an open file."""
    if header:
        fh.write(RESULTS_HEADER + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    for rec in records:
        t_cons = "" if rec.t_cons is None else str(rec.t_cons)
        opinion = "" if rec.final_opinion is None else str(rec.final_opinion)
        writer.writerow(
            [
                cfg.model,
                str(cfg.n),
                f"{cfg.p:.9g}",
                f"{cfg.q:.9g}",
                f"{cfg.r:.9g}",
                str(cfg.init),
                str(rec.trial),
                str(rec.seed),
                t_cons,
                str(int(rec.timeout)),
                opinion,
                f"{rec.peak_abs_delta2:.9g}",
            ]
        )
