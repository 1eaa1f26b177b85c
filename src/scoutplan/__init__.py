"""Planning toolkit for carrier/scout robot teams on topological graphs with
interval-uncertain edge costs: exact MILP construction and solving, an
independent brute-force oracle, and a receding-horizon mission simulator."""

from .branch_bound import MilpResult, SolveOptions, model_to_lp, solve_milp
from .executor import (
    BeliefState,
    MissionLog,
    MissionStep,
    run_ablation,
    run_mission,
    update_belief,
    variant_scenario,
)
from .formulation import (
    Excursion,
    Plan,
    PlanVars,
    StepCost,
    build_model,
    compact_variable_count,
    decay_coefficients,
    extract_plan,
    heuristic_plan_from_relaxation,
    paper_parity_variable_count,
    plan_to_assignment,
)
from .planner import PlanningOutcome, solve_scenario, structured_candidate
from .graphs import (
    DirEdge,
    EdgeData,
    Graph,
    ValidationError,
    effective_uncertainty,
    hurwicz_value,
    launch_cost_at,
)
from .milp import LinExpr, LpProblem, Model, Sense, VarDef, evaluate, export_mps
from .oracle import OracleResult, enumerate_optimal, evaluate_plan_cost
from .scenario import (
    GroundTruth,
    ParseError,
    Scenario,
    TermWeights,
    load_scenario,
    load_scenario_file,
    scenario_to_document,
)
from .simplex import LpResult, LpSolver

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
