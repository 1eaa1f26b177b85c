"""Command-line surface: validation, single solves, missions, ablations,
optimism sweeps and format exports.

Exit codes: 0 ok, 2 invalid input, 3 infeasible, 4 solver limit reached.
simulate, ablate and sweep-beta write every file first and then exit 3 when
any of their missions went infeasible, else 4 when any stopped at the solver
limit.
Invalid input that argparse accepts is raised as one exception, _Invalid,
or, for a scenario whose model would exceed the variable limit, as the
ValidationError of build_model; main alone prints either message as
`error: <message>` before returning 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import report
from .branch_bound import SolveOptions
from .executor import VARIANTS, run_ablation, run_mission, variant_scenario
from .formulation import (
    build_model,
    compact_variable_count,
    paper_parity_variable_count,
)
from .graphs import ValidationError
from .milp import export_mps
from .planner import solve_scenario
from .scenario import load_scenario_file

OK, INVALID, INFEASIBLE, LIMIT = 0, 2, 3, 4


class _Invalid(Exception):
    """Invalid input; main prints its message and returns INVALID."""


def _load(path: str, need_truth: bool = False):
    try:
        scenario, truth = load_scenario_file(path)
    except FileNotFoundError:
        raise _Invalid(f"no such file: {path}") from None
    except (OSError, ValueError) as exc:    # ParseError and ValidationError too
        raise _Invalid(exc) from None
    if need_truth and truth is None:
        raise _Invalid("scenario has no ground_truth section")
    return scenario, truth


def _outdir(args) -> Path:
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Invalid(f"output directory {out}: {exc}") from None
    return out


def _mission_exit(logs) -> int:
    """INFEASIBLE when any mission is infeasible, else LIMIT when any stopped
    at the solver limit, else OK."""
    statuses = {log.status for log in logs}
    if "infeasible" in statuses:
        return INFEASIBLE
    if "solver-limit" in statuses:
        return LIMIT
    return OK


def cmd_validate(args) -> int:
    scenario, truth = _load(args.scenario)
    g = scenario.graph
    print(f"nodes: {g.n_nodes}  undirected edges: {len(g.uedges)}  "
          f"locations: {g.n_locations}")
    print(f"carriers: {scenario.carrier_count}  scouts: {scenario.scout_count}  "
          f"horizon: {scenario.horizon}x{scenario.scout_steps}")
    for ue, (_, _, data) in enumerate(g.uedges):
        print(f"edge {g.edge_label(ue)}: weight {data.weight:g} "
              f"effective uncertainty {scenario.edge_uncertainty(ue):g}")
    for v in range(g.n_nodes):
        print(f"node {g.node_labels[v]}: launch cost {scenario.launch_cost(v):g}")
    print(f"variables (compact): {compact_variable_count(scenario)}")
    print(f"variables (paper parity): {paper_parity_variable_count(scenario)}")
    print("ground truth: " + ("present" if truth else "absent"))
    return OK


def cmd_plan(args) -> int:
    scenario, _ = _load(args.scenario)
    out = _outdir(args)
    if args.export_mps:
        model, _ = build_model(scenario)
        (out / "model.mps").write_text(export_mps(model))
        print(f"wrote {out / 'model.mps'}")
        return OK
    print(f"decision variables (compact): {compact_variable_count(scenario)}")
    outcome = solve_scenario(scenario, args.options)
    result = outcome.result
    if result.status == "infeasible":
        print("infeasible", file=sys.stderr)
        return INFEASIBLE
    if outcome.plan is None:
        print(f"solver stopped: {result.status}", file=sys.stderr)
        return LIMIT
    plan = outcome.plan
    (out / "plan.json").write_text(report.plan_to_json(plan, scenario))
    (out / "plan_costs.csv").write_text(report.plan_cost_csv(plan))
    if args.dot:
        (out / "routes.dot").write_text(report.routes_dot(
            scenario, plan.scout_excursions, plan.carrier_routes))
    print(f"objective {result.objective:.6f} status {result.status} "
          f"nodes {result.nodes}")
    return OK if result.status == "optimal" else LIMIT


def cmd_simulate(args) -> int:
    scenario, truth = _load(args.scenario, need_truth=True)
    out = _outdir(args)
    log = run_mission(scenario, truth, args.options)
    keep = not args.deterministic
    (out / "mission.json").write_text(
        report.mission_to_json(log, scenario, keep_timings=keep))
    (out / "mission_costs.csv").write_text(
        report.mission_cost_csv(log, keep_timings=keep))
    if args.dot:
        for step in log.steps:
            (out / f"step{step.index:03d}.dot").write_text(
                report.routes_dot(scenario, step.excursions))
    print(f"status {log.status} steps {len(log.steps)} "
          f"route-true-cost {log.route_true_cost:.6f}")
    return _mission_exit([log])


def cmd_ablate(args) -> int:
    scenario, truth = _load(args.scenario, need_truth=True)
    out = _outdir(args)
    if args.variant:
        logs = {args.variant: run_mission(variant_scenario(scenario, args.variant),
                                          truth, args.options)}
    else:
        logs = run_ablation(scenario, truth, args.options)
    rows = []
    for variant, log in logs.items():
        rows.append([variant, log.status, log.route_true_cost,
                     log.objective_true_cost])
        (out / f"mission_{variant}.json").write_text(
            report.mission_to_json(log, scenario,
                                   keep_timings=not args.deterministic))
        if args.dot:
            (out / f"routes_{variant}.dot").write_text(report.routes_dot(
                scenario, [e for s in log.steps for e in s.excursions]))
        print(f"{variant}: status {log.status} "
              f"route-true-cost {log.route_true_cost:.6f}")
    (out / "ablation.csv").write_text(report.comparison_csv(
        ["variant", "status", "route_true_cost", "objective_true_cost"], rows))
    return _mission_exit(logs.values())


def cmd_sweep_beta(args) -> int:
    scenario, truth = _load(args.scenario, need_truth=True)
    try:
        arms = [replace(scenario, optimism=float(b)) for b in args.beta.split(",")]
    except ValidationError as exc:          # an optimism outside [0, 0.5)
        raise _Invalid(exc) from None
    except ValueError:
        raise _Invalid(f"bad --beta list {args.beta!r}") from None
    out = _outdir(args)
    g = scenario.graph
    header = ["edge"] + [f"beta={arm.optimism:g}" for arm in arms]
    per_edge = {ue: [] for ue in range(len(g.uedges))}
    totals, logs = [], []
    for arm in arms:
        log = run_mission(arm, truth, args.options)
        logs.append(log)
        excursions = [e for s in log.steps for e in s.excursions]
        counts = report.scout_visit_counts(scenario, excursions)
        for ue in per_edge:
            per_edge[ue].append(counts[ue])
        totals.append(sum(counts.values()))
        (out / f"routes_beta{arm.optimism:g}.dot").write_text(
            report.routes_dot(scenario, excursions))
        print(f"beta={arm.optimism:g}: status {log.status} scout edge visits "
              f"{sum(counts.values())}")
    rows = [[g.edge_label(ue)] + per_edge[ue] for ue in sorted(per_edge)]
    rows.append(["total"] + totals)
    (out / "beta_sweep.csv").write_text(report.comparison_csv(header, rows))
    return _mission_exit(logs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoutplan",
        description="Plan and simulate carrier/scout robot teams on "
                    "topological graphs with uncertain edge costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_help = {"deterministic": "scrub wall times from outputs",
                 "dot": "also write DOT renderings"}

    def common(p, *flags):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("-o", "--output", default="out",
                       help="output directory (default: out)")
        p.add_argument("--gap", type=float, default=1e-6,
                       help="absolute optimality gap")
        p.add_argument("--time-limit", type=float, default=None)
        p.add_argument("--nodes-limit", type=int, default=None)
        for flag in flags:
            p.add_argument(f"--{flag}", action="store_true", help=flag_help[flag])

    p = sub.add_parser("validate", help="check a scenario and print derived sizes")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="single solve: plan files or MPS export")
    common(p, "dot")
    p.add_argument("--export-mps", action="store_true",
                   help="write the model in MPS format and skip solving")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="receding-horizon mission")
    common(p, "deterministic", "dot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ablate", help="run the four ablation variants")
    common(p, "deterministic", "dot")
    p.add_argument("--variant", default=None, choices=VARIANTS,
                   help="restrict to one variant (default: all four)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-beta", help="missions across optimism values")
    common(p)
    p.add_argument("--beta", default="0,0.15,0.3,0.45",
                   help="comma-separated optimism values")
    p.set_defaults(func=cmd_sweep_beta)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # exits 2 on bad input, 0 on --help
        if "gap" in args:                       # every command but validate,
            try:                                # before any output is written
                args.options = SolveOptions(gap=args.gap, node_limit=args.nodes_limit,
                                            time_limit=args.time_limit)
            except ValueError as exc:
                raise _Invalid(exc) from None
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else INVALID
    except (_Invalid, ValidationError) as exc:  # ValidationError: too many variables
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
