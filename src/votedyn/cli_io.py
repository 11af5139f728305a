"""Command-line front end: graph files, simulations, analysis reports,
vector-field figures, and the experiment drivers.

Exit codes: 0 success, 1 IO or runtime failure, 2 usage or validation error.
The master seed comes from --seed, else the VOTEDYN_SEED environment
variable, else the fixed default 0xC0FFEE; nothing is ever time-seeded.
"""

from __future__ import annotations

import argparse
import contextlib
from dataclasses import replace
import json
import math
import os
import sys

import numpy as np

from . import concentration_probe as cp
from . import experiment_harness as eh
from . import fixed_point_analysis as fpa
from . import induced_dynamics as idyn
from . import sbm_graph
from . import voting_core as vc

DEFAULT_SEED = 0xC0FFEE
SVG_SIZE = 800.0
# vector-field grid points per axis, one arrow each: a grid step of 0.002 or
# more, at most 501^2 arrows (about 31 MB of SVG)
MAX_GRID_AXIS = 501


def resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("VOTEDYN_SEED")
    if env is not None:
        return int(env, 0)
    return DEFAULT_SEED


def _output(path):
    """A context manager: standard output for None or "-", else the file at path."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _emit(path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------- config files


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config: expected a JSON object at top level")
    return cfg


# JSON types a config field of each kind accepts; nothing else is coerced,
# and a boolean never passes as a number
_CONFIG_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _merged(args, cfg: dict, key: str, kind, default=None, required=False):
    """Flag value if given, else config-file value, else default. Type errors
    carry the config field path."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in cfg:
        value = cfg[key]
        if type(value) not in _CONFIG_TYPES[kind]:
            raise ValueError(f"config.{key}: expected {kind.__name__}, got {value!r}")
        return kind(value)
    if required and default is None:
        raise ValueError(f"config.{key}: required (flag or config file)")
    return default


def _experiment_config(
    args,
    cfg: dict,
    default_init: str | None,
    default_steps: int,
    r_fallback: float | None = None,
) -> eh.ExperimentConfig:
    r = _merged(args, cfg, "r", float, r_fallback, required=r_fallback is None)
    seed = _merged(args, cfg, "seed", int)
    if seed is None and "master_seed" in cfg:
        seed = _merged(args, cfg, "master_seed", int)
    return eh.ExperimentConfig(
        model=_merged(args, cfg, "model", str, required=True),
        n=_merged(args, cfg, "n", int, required=True),
        p=_merged(args, cfg, "p", float, required=True),
        r=r,
        init=_merged(args, cfg, "init", str, default_init) or None,
        trials=_merged(args, cfg, "trials", int, 10),
        max_steps=_merged(args, cfg, "max_steps", int, default_steps),
        master_seed=resolve_seed(seed),
        shared_graph=_merged(args, cfg, "shared_graph", bool, False),
        workers=_merged(args, cfg, "workers", int, 1),
    )


def _records_json(records) -> list[dict]:
    # TrialRecord's field order is the JSON key order
    return [{key: value for key, value in vars(rec).items() if key != "alphas"} for rec in records]


# ---------------------------------------------------------------- subcommands


def cmd_generate(args) -> int:
    g = sbm_graph.generate_sbm(args.n, args.p, args.q, resolve_seed(args.seed))
    sbm_graph.save_graph(g, args.output)
    stats = sbm_graph.degree_stats(g)
    print(
        f"n={g.n} vertices={g.num_vertices} edges={g.num_edges} "
        f"min_deg={stats.min_deg} max_deg={stats.max_deg} "
        f"mean_deg={stats.mean_deg:.6g} max_abs_dev={stats.max_abs_dev:.6g} "
        f"normalized_dev={stats.normalized_dev:.6g}"
    )
    return 0


def _graph_from_args(args, master_seed: int) -> sbm_graph.Graph:
    if args.graph:
        return sbm_graph.load_graph(args.graph)
    if args.n is None or args.p is None:
        raise ValueError("need --graph or inline --n/--p parameters")
    if args.q is not None:
        q = args.q
    elif args.r is not None:
        q = args.r * args.p
    else:
        raise ValueError("need --q or --r with inline graph parameters")
    graph_seed = args.graph_seed if args.graph_seed is not None else master_seed
    return sbm_graph.generate_sbm(args.n, args.p, q, graph_seed)


def cmd_simulate(args) -> int:
    seed = resolve_seed(args.seed)
    g = _graph_from_args(args, seed)
    rule = vc.rule_from_name(args.model)
    family = vc.parse_init_family(args.init)
    rng = np.random.Generator(np.random.Philox(seed))
    s0 = vc.make_initial(g, family, rng)
    if args.max_steps < 0:
        raise ValueError("max_steps must be >= 0")  # before the output exists
    with _output(args.output) as fh:
        traj = vc.write_trajectory_csv(g, s0, rule, args.max_steps, rng, fh)
    status = traj.status if traj.t_cons is None else f"consensus at t={traj.t_cons}"
    print(f"simulate: {status}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    if (args.r is None) == (args.u is None):
        raise ValueError("give exactly one of --r or --u")
    u = args.u if args.u is not None else idyn.u_of_r(args.r)
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0,1]")
    reports = fpa.analyze(args.model, u)
    doc = {
        "model": args.model,
        "u": u,
        "r": idyn.r_of_u(u),
        "fixed_points": [rep.to_json_dict() for rep in reports],
    }
    _emit(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_vector_field(args) -> int:
    svg = render_vector_field(args.model, args.r, args.grid_step, args.space)
    _emit(args.output, svg)
    return 0


def cmd_sweep(args) -> int:
    cfg_file = load_config(args.config)
    if args.r_grid:
        r_grid = [float(tok) for tok in args.r_grid.split(",")]
    else:
        r_grid = cfg_file.get("r_grid")
        numbers = isinstance(r_grid, list) and all(type(v) in _CONFIG_TYPES[float] for v in r_grid)
        if not (numbers and r_grid):
            raise ValueError(
                f"config.r_grid: expected a non-empty list of numbers (or --r-grid), got {r_grid!r}"
            )
        r_grid = [float(v) for v in r_grid]
    cfg = _experiment_config(
        args, cfg_file, default_init="biased_global(0.2)", default_steps=50,
        r_fallback=r_grid[0],
    )
    results = eh.phase_sweep(cfg, r_grid)
    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "results.csv")
    with open(csv_path, "w") as fh:
        for k, block in enumerate(results):
            eh.write_results_csv(replace(cfg, r=block["r"]), block["records"], fh, header=(k == 0))
    summary = {
        "config": _config_echo(cfg),
        "r_grid": r_grid,
        "per_r": [
            {key: blk[key] for key in ("r", "consensus_fraction", "median_t_cons", "max_t_cons", "timeouts")}
            for blk in results
        ],
    }
    with open(os.path.join(args.outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    for blk in summary["per_r"]:
        print(f"r={blk['r']:g} consensus_fraction={blk['consensus_fraction']:.3f}", file=sys.stderr)
    print(f"wrote {csv_path}", file=sys.stderr)
    return 0


def _config_echo(cfg: eh.ExperimentConfig) -> dict:
    return {
        "model": cfg.model,
        "n": cfg.n,
        "p": cfg.p,
        "q": cfg.q,
        "r": cfg.r,
        "init": str(cfg.init) if cfg.init else None,
        "trials": cfg.trials,
        "max_steps": cfg.max_steps,
        "master_seed": cfg.master_seed,
        "shared_graph": cfg.shared_graph,
        "workers": cfg.workers,
    }


def cmd_sink_persist(args) -> int:
    cfg_file = load_config(args.config)
    cfg = _experiment_config(args, cfg_file, default_init=None, default_steps=10000)
    report = eh.sink_persistence(cfg, epsilon=args.epsilon)
    records = report.pop("records")
    report["config"] = _config_echo(cfg)
    report["records"] = _records_json(records)
    _emit(args.output, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_escape(args) -> int:
    cfg_file = load_config(args.config)
    cfg = _experiment_config(args, cfg_file, default_init="half_half", default_steps=1000)
    if not 0.0 <= args.budget_c < math.inf:
        raise ValueError(f"--budget-c must be a finite number >= 0, got {args.budget_c}")
    budget = args.budget
    if budget is None:
        budget = math.ceil(args.budget_c * math.log(cfg.n))
    report = eh.escape_time(cfg, kappa=args.kappa, budget=budget)
    records = report.pop("records")
    report["config"] = _config_echo(cfg)
    report["records"] = _records_json(records)
    _emit(args.output, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_worst_case(args) -> int:
    cfg_file = load_config(args.config)
    cfg = _experiment_config(args, cfg_file, default_init="half_half", default_steps=500)
    report = eh.worst_case_scan(cfg)
    blocks = report.pop("records")
    report["config"] = _config_echo(cfg)
    if args.csv:
        with open(args.csv, "w") as fh:
            for k, (family, records) in enumerate(blocks):
                eh.write_results_csv(replace(cfg, init=family), records, fh, header=(k == 0))
    _emit(args.output, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_deviation(args) -> int:
    cfg_file = load_config(args.config)
    cfg = _experiment_config(args, cfg_file, default_init="clustered(0.05,0.15)", default_steps=50)
    report = eh.trajectory_deviation(cfg, t_max=args.t_max)
    report["config"] = _config_echo(cfg)
    _emit(args.output, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_goodness(args) -> int:
    seed = resolve_seed(args.seed)
    g = _graph_from_args(args, seed)
    rule = vc.rule_from_name(args.rule)
    rng = np.random.Generator(np.random.Philox(eh.derive_seed(seed, "goodness")))
    orders = [int(tok) for tok in args.l.split(",")] if args.l else [1, 2, 3]
    sizes = [int(tok) for tok in args.sizes.split(",")] if args.sizes else None
    report = cp.goodness_report(g, rule, args.samples, rng, w_orders=orders, p3_sizes=sizes)
    _emit(args.output, json.dumps(report, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------- SVG rendering


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_vector_field(model: str, r: float, grid_step: float, space: str) -> str:
    """Self-contained SVG phase portrait: one arrow per grid point with length
    proportional to the one-step displacement (capped at the cell size),
    fixed-point circles labeled by id, sinks filled, y pointing up."""
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid step must lie in (0,1]")
    # np.arange's point count is the ceiling of this ratio
    if (1.0 + grid_step / 2.0) / grid_step > MAX_GRID_AXIS:
        raise ValueError(f"grid step {grid_step:g} gives more than {MAX_GRID_AXIS} points per axis")
    m = idyn.induced_map(vc.rule_from_name(model), r, space=space)
    axis = np.arange(0.0, 1.0 + grid_step / 2.0, grid_step)
    g1, g2 = np.meshgrid(axis, axis)
    if space == "delta":
        keep = g1 + g2 <= 1.0 + 1e-9
        xs, ys = g1[keep], g2[keep]
    else:
        xs, ys = g1.ravel(), g2.ravel()
    fx, fy = m.eval((xs, ys))
    dx, dy = fx - xs, fy - ys
    length = np.hypot(dx, dy)
    max_len = float(length.max())
    cell_px = grid_step * SVG_SIZE
    scale = 0.0 if max_len == 0.0 else 0.85 * cell_px / max_len / SVG_SIZE

    def to_px(x, y):
        return x * SVG_SIZE, SVG_SIZE - y * SVG_SIZE

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800" '
        f'width="800" height="800">',
        "<defs>"
        '<marker id="ah" markerWidth="6" markerHeight="6" refX="5" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#334"/></marker>'
        "</defs>",
        f"<!-- model={model} r={r:.9g} u={m.u:.9g} space={space} step={grid_step:.9g} -->",
        '<rect x="0" y="0" width="800" height="800" fill="#fcfcf8" stroke="#889"/>',
    ]
    for x, y, ddx, ddy in zip(xs, ys, dx, dy):
        x0, y0 = to_px(x, y)
        x1, y1 = to_px(x + ddx * scale * SVG_SIZE, y + ddy * scale * SVG_SIZE)
        lines.append(
            f'<line class="arrow" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
            f'x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="#334" stroke-width="1.2" '
            'marker-end="url(#ah)"/>'
        )
    lines.extend(_fixed_point_markers(model, m.u, space))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _fixed_point_markers(model: str, u: float, space: str) -> list[str]:
    if model not in fpa.MODELS:
        return []
    out = []
    filled_classes = (fpa.CLASS_SINK, fpa.CLASS_CONSENSUS)
    for rep in fpa.analyze(model, u):
        if not rep.exists:
            continue
        d1, d2 = rep.location
        images = {(d1, d2), (-d1, d2), (d1, -d2), (-d1, -d2)}
        for i1, i2 in sorted(images):
            if space == "delta":
                if i1 < -1e-12 or i2 < -1e-12:
                    continue
                px, py = i1 * SVG_SIZE, SVG_SIZE - i2 * SVG_SIZE
            else:
                a1, a2 = vc.to_alpha(i1, i2)
                px, py = a1 * SVG_SIZE, SVG_SIZE - a2 * SVG_SIZE
            fill = "#c33" if rep.classification in filled_classes else "none"
            out.append(
                f'<circle class="fp" cx="{_fmt(px)}" cy="{_fmt(py)}" r="8" '
                f'fill="{fill}" stroke="#c33" stroke-width="2"/>'
            )
            lx = min(max(px + 10.0, 10.0), SVG_SIZE - 40.0)
            ly = min(max(py - 10.0, 20.0), SVG_SIZE - 10.0)
            out.append(
                f'<text class="fp-label" x="{_fmt(lx)}" y="{_fmt(ly)}" '
                f'font-family="monospace" font-size="16" fill="#c33">{rep.id}</text>'
            )
    return out


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="votedyn",
        description="Two-opinion multi-sample voting dynamics on two-community graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph file")
    gen.add_argument("--n", type=int, required=True, help="community size (graph has 2n vertices)")
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--q", type=float, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    def graph_source(p):
        p.add_argument("--graph", default=None, help="edge-list file produced by generate")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--r", type=float, default=None, help="cross ratio q/p (alternative to --q)")
        p.add_argument("--graph-seed", type=int, default=None)

    sim = sub.add_parser("simulate", help="run one voting process, write a trajectory CSV")
    graph_source(sim)
    sim.add_argument("--model", required=True, help="bo3, bo2, or best_of_<m>")
    sim.add_argument("--init", default="half_half", help="e.g. clustered(0.3,0.1)")
    sim.add_argument("--max-steps", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("-o", "--output", default="-")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fixed points and stability as JSON")
    ana.add_argument("--model", required=True, choices=fpa.MODELS)
    ana.add_argument("--r", type=float, default=None)
    ana.add_argument("--u", type=float, default=None)
    ana.add_argument("-o", "--output", default="-")
    ana.set_defaults(func=cmd_analyze)

    vf = sub.add_parser("vector-field", help="SVG phase portrait of the induced map")
    vf.add_argument("--model", required=True)
    vf.add_argument("--r", type=float, required=True)
    vf.add_argument("--grid-step", type=float, default=0.05)
    vf.add_argument("--space", choices=("alpha", "delta"), default="alpha")
    vf.add_argument("-o", "--output", default="-")
    vf.set_defaults(func=cmd_vector_field)

    def experiment_flags(p):
        p.add_argument("--config", default=None, help="JSON file; flags override its values")
        p.add_argument("--model", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--init", default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shared-graph", dest="shared_graph", action="store_const", const=True, default=None)
        p.add_argument("--workers", type=int, default=None)

    sw = sub.add_parser("sweep", help="consensus statistics over an r grid")
    experiment_flags(sw)
    sw.add_argument("--r-grid", default=None, help="comma-separated r values")
    sw.add_argument("-o", "--outdir", required=True)
    sw.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("sink-persist", help="persistence near the axis sink below threshold")
    experiment_flags(sp)
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_sink_persist)

    esc = sub.add_parser("escape", help="first time |delta2| exceeds kappa")
    experiment_flags(esc)
    esc.add_argument("--kappa", type=float, default=0.2)
    esc.add_argument("--budget", type=int, default=None)
    esc.add_argument("--budget-c", dest="budget_c", type=float, default=15.0)
    esc.add_argument("-o", "--output", default="-")
    esc.set_defaults(func=cmd_escape)

    wc = sub.add_parser("worst-case", help="consensus time across adversarial init families")
    experiment_flags(wc)
    wc.add_argument("--csv", default=None, help="also write per-trial records CSV")
    wc.add_argument("-o", "--output", default="-")
    wc.set_defaults(func=cmd_worst_case)

    dev = sub.add_parser("deviation", help="stochastic trajectory vs induced-map orbit")
    experiment_flags(dev)
    dev.add_argument("--t-max", dest="t_max", type=int, default=10)
    dev.add_argument("-o", "--output", default="-")
    dev.set_defaults(func=cmd_deviation)

    good = sub.add_parser("goodness", help="concentration probes on one graph")
    graph_source(good)
    good.add_argument("--rule", required=True)
    good.add_argument("--samples", type=int, default=100)
    good.add_argument("--l", default=None, help="comma-separated W orders, default 1,2,3")
    good.add_argument("--sizes", default=None, help="comma-separated |A| sizes for the small-set probe")
    good.add_argument("--seed", type=int, default=None)
    good.add_argument("-o", "--output", default="-")
    good.set_defaults(func=cmd_goodness)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
