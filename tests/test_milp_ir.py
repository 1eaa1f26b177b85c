import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from scoutplan import milp
from scoutplan.milp import BINARY, CONTINUOUS, INTEGER, LinExpr, Model, Sense

GOLDEN = Path(__file__).resolve().parent / "golden"


def tiny_model():
    m = Model(name="tiny")
    x = m.add_var(INTEGER, 0, 5, "x")
    y = m.add_var(BINARY, 0, 1, "y")
    z = m.add_var(CONTINUOUS, 0, 2.5, "z")
    m.objective = LinExpr({x: 1.0, y: -2.0, z: 0.5}, constant=3.0)
    m.add_constraint(LinExpr({x: 1.0, y: 1.0}), Sense.GE, 2.0, "cover")
    m.add_constraint(LinExpr({x: 2.0, z: -1.0}), Sense.LE, 7.5, "cap")
    m.add_constraint(LinExpr({y: 1.0, z: 1.0}), Sense.EQ, 1.5, "balance")
    return m


class TestAddVar:
    def test_dense_ids(self):
        m = Model()
        assert m.add_var(CONTINUOUS, 0, 1, "a") == 0
        assert m.add_var(CONTINUOUS, 0, 1, "b") == 1

    def test_binary_bounds_enforced(self):
        m = Model()
        m.add_var(BINARY, 0, 1, "ok")
        with pytest.raises(ValueError):
            m.add_var(BINARY, 0, 2, "bad")

    def test_inverted_bounds_rejected(self):
        m = Model()
        with pytest.raises(ValueError, match="lower"):
            m.add_var(INTEGER, 3, 2, "bad")

    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_var(CONTINUOUS, 0, 1, "x")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_var(CONTINUOUS, 0, 1, "x")


class TestLinExpr:
    def test_zero_coefficients_not_stored(self):
        e = LinExpr()
        e.add_term(0, 1.0)
        e.add_term(0, -1.0)
        assert e.coeffs == {}

    def test_accumulates(self):
        e = LinExpr({0: 1.0})
        e.add_term(0, 2.0)
        assert e.coeffs == {0: 3.0}

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinExpr({0: math.nan})


class TestEvaluate:
    def model(self):
        m = Model()
        x = m.add_var(INTEGER, 0, 10, "x")
        m.objective = LinExpr({x: 1.0})
        m.add_constraint(LinExpr({x: 1.0}), Sense.GE, 2.0, "atleast2")
        return m

    def test_feasible_integer_point(self):
        res = milp.evaluate(self.model(), {0: 2.0})
        assert res.objective == 2.0
        assert res.feasible

    def test_integrality_violation(self):
        res = milp.evaluate(self.model(), {0: 1.5})
        kinds = {v.kind for v in res.violations}
        assert "integrality" in kinds

    def test_slack_reported(self):
        res = milp.evaluate(self.model(), {0: 1.0})
        con = [v for v in res.violations if v.kind == "constraint"]
        assert con and con[0].amount == pytest.approx(1.0)

    def test_feasible_above_rhs(self):
        res = milp.evaluate(self.model(), {0: 3.0})
        assert res.objective == 3.0
        assert res.feasible

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            milp.evaluate(self.model(), {})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_is_infeasible(self, value):
        m = Model()
        y = m.add_var(CONTINUOUS, 0, math.inf, "y")
        m.add_constraint(LinExpr({y: 1.0}), Sense.GE, 1.0, "atleast1")
        res = milp.evaluate(m, {y: value})
        assert not res.feasible
        assert [(v.kind, v.name) for v in res.violations] == [("bound", "y")]


class TestLowering:
    def test_row_added_after_evaluation_is_checked(self):
        m = TestEvaluate().model()
        assert milp.evaluate(m, {0: 3.0}).feasible
        m.add_constraint(LinExpr({0: 1.0}), Sense.LE, 2.0, "atmost2")
        res = milp.evaluate(m, {0: 3.0})
        assert [(v.kind, v.name, v.amount) for v in res.violations] == [
            ("constraint", "atmost2", 1.0)]

    def test_variable_added_after_lowering_changes_shape(self):
        from scoutplan import model_to_lp

        m = tiny_model()
        problem, _ = model_to_lp(m)
        assert problem.rows.shape == (3, 3)
        m.add_var(CONTINUOUS, 0, 1, "w")
        problem, _ = model_to_lp(m)
        assert problem.rows.shape == (3, 4)
        assert len(problem.objective) == len(problem.lower) == 4

    def test_arrays_are_read_only(self):
        problem, integer = milp.model_arrays(tiny_model())
        with pytest.raises(ValueError):
            problem.objective[0] = 1.0
        with pytest.raises(ValueError):
            problem.rows.data[0] = 1.0
        with pytest.raises(ValueError):
            integer[0] = False


def lp_problem(objective=(1.0, 1.0), rows=((1.0, 2.0), (3.0, 4.0)),
               senses=("L", "G"), rhs=(5.0, 6.0), lower=(0.0, 0.0),
               upper=(1.0, 1.0)):
    return milp.LpProblem(np.array(objective), sp.csr_matrix(np.array(rows)),
                          np.array(senses), np.array(rhs), np.array(lower),
                          np.array(upper))


class TestLpProblem:
    @pytest.mark.parametrize("field, value", [
        ("objective", (1.0,)), ("senses", ("L",)), ("rhs", (5.0, 6.0, 7.0)),
        ("lower", (0.0,)), ("upper", (1.0, 1.0, 1.0)),
    ])
    def test_inconsistent_dimensions_rejected(self, field, value):
        with pytest.raises(ValueError, match="inconsistent problem dimensions"):
            lp_problem(**{field: value})

    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError, match="lower bound above upper bound"):
            lp_problem(lower=(0.0, 2.0))

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError, match="unknown sense 'N'"):
            lp_problem(senses=("L", "N"))

    def test_row_bounds(self):
        problem = lp_problem(rows=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
                             senses=("L", "E", "G"), rhs=(5.0, -2.0, 3.0))
        lo, hi = problem.row_bounds
        assert lo.tolist() == [-math.inf, -2.0, 3.0]
        assert hi.tolist() == [5.0, -2.0, math.inf]


class TestMps:
    def test_golden_file(self):
        text = milp.export_mps(tiny_model())
        golden = GOLDEN / "tiny.mps"
        assert text == golden.read_text()

    def test_deterministic(self):
        assert milp.export_mps(tiny_model()) == milp.export_mps(tiny_model())

    def test_binary_bv_line(self):
        text = milp.export_mps(tiny_model())
        assert " BV BND       x1" in text

    def test_integer_markers(self):
        text = milp.export_mps(tiny_model())
        assert "'INTORG'" in text and "'INTEND'" in text

    def test_fixed_and_free_below_bound_lines(self):
        m = Model(name="fx_mi")
        x = m.add_var(CONTINUOUS, 2.5, 2.5, "x")
        y = m.add_var(CONTINUOUS, -math.inf, 4, "y")
        m.objective = LinExpr({x: 1.0, y: -1.0})
        assert milp.export_mps(m).split("\nBOUNDS\n")[1].splitlines() == [
            " FX BND       x0        2.5", " MI BND       x1",
            " UP BND       x1        4", "ENDATA"]

    def test_single_variable_model(self):
        m = Model(name="one")
        x = m.add_var(CONTINUOUS, 0, 4, "x")
        m.objective = LinExpr({x: 1.0})
        text = milp.export_mps(m)
        columns = text.split("COLUMNS")[1].split("RHS")[0].strip().splitlines()
        assert len(columns) == 1


def parse_mps(text: str):
    """Minimal fixed-format MPS reader used to close the export round-trip."""
    section = None
    rows = {}
    row_order = []
    columns = {}
    rhs = {}
    bounds = {}
    integer = set()
    in_int = False
    for line in text.splitlines():
        if not line.strip():
            continue
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        parts = line.split()
        if section == "ROWS":
            rows[parts[1]] = parts[0]
            row_order.append(parts[1])
        elif section == "COLUMNS":
            if "'MARKER'" in line:
                in_int = "'INTORG'" in line
                continue
            name = parts[0]
            if in_int:
                integer.add(name)
            for row, coef in zip(parts[1::2], parts[2::2]):
                columns.setdefault(name, {})[row] = float(coef)
        elif section == "RHS":
            for row, value in zip(parts[1::2], parts[2::2]):
                rhs[row] = float(value)
        elif section == "BOUNDS":
            kind, _, name = parts[0], parts[1], parts[2]
            value = float(parts[3]) if len(parts) > 3 else None
            bounds.setdefault(name, []).append((kind, value))
    return rows, row_order, columns, rhs, bounds, integer


def brute_force_optimum(model: Model):
    """Enumerate the integer lattice; continuous vars sit at their best bound
    per objective sign (models below keep continuous vars unconstrained)."""
    int_ids = np.flatnonzero(milp.model_arrays(model)[1]).tolist()
    grids = [range(int(model.variables[i].lower), int(model.variables[i].upper) + 1)
             for i in int_ids]
    best = math.inf
    for combo in itertools.product(*grids) if grids else [()]:
        x = {}
        for i, v in zip(int_ids, combo):
            x[i] = float(v)
        for var in model.variables:
            if var.id not in x:
                coef = model.objective.coeffs.get(var.id, 0.0)
                x[var.id] = var.lower if coef >= 0 else var.upper
        res = milp.evaluate(model, x)
        if res.feasible:
            best = min(best, res.objective)
    return best


def five_tiny_models():
    models = []
    m = Model(name="knap")
    ids = [m.add_var(BINARY, 0, 1, f"b{i}") for i in range(4)]
    m.objective = LinExpr({ids[0]: -3, ids[1]: -5, ids[2]: -4, ids[3]: -1})
    m.add_constraint(LinExpr({ids[0]: 2, ids[1]: 4, ids[2]: 3, ids[3]: 1}),
                     Sense.LE, 6, "w")
    models.append(m)

    m = Model(name="cover")
    ids = [m.add_var(BINARY, 0, 1, f"b{i}") for i in range(3)]
    m.objective = LinExpr({ids[0]: 2, ids[1]: 3, ids[2]: 4})
    m.add_constraint(LinExpr({ids[0]: 1, ids[1]: 1}), Sense.GE, 1, "c0")
    m.add_constraint(LinExpr({ids[1]: 1, ids[2]: 1}), Sense.GE, 1, "c1")
    models.append(m)

    m = Model(name="intbox")
    a = m.add_var(INTEGER, 0, 4, "a")
    b = m.add_var(INTEGER, 0, 4, "b")
    m.objective = LinExpr({a: -1, b: -2}, constant=1.0)
    m.add_constraint(LinExpr({a: 1, b: 2}), Sense.LE, 5, "cap")
    models.append(m)

    m = Model(name="eq")
    a = m.add_var(INTEGER, 0, 3, "a")
    b = m.add_var(INTEGER, 0, 3, "b")
    m.objective = LinExpr({a: 1, b: 1})
    m.add_constraint(LinExpr({a: 1, b: 1}), Sense.EQ, 3, "sum")
    models.append(m)

    m = Model(name="mixed")
    a = m.add_var(BINARY, 0, 1, "a")
    b = m.add_var(INTEGER, 0, 2, "b")
    m.objective = LinExpr({a: -2, b: 1}, constant=0.5)
    m.add_constraint(LinExpr({a: 3, b: -1}), Sense.LE, 2, "link")
    models.append(m)
    return models


class TestMpsRoundTrip:
    @pytest.mark.parametrize("model", five_tiny_models(), ids=lambda m: m.name)
    def test_reader_reconstructs_and_solves(self, model):
        from scoutplan import SolveOptions, solve_milp

        text = milp.export_mps(model)
        rows, row_order, columns, rhs, bounds, integer = parse_mps(text)

        # reconstruct an equivalent model from the MPS text
        rebuilt = Model(name="rebuilt")
        id_of = {}
        for var in model.variables:
            name = f"x{var.id}"
            entry = dict(bounds.get(name, []))
            if "BV" in entry:
                lo, hi, kind = 0.0, 1.0, BINARY
            else:
                lo = entry.get("LO", 0.0) if "FX" not in entry else entry["FX"]
                hi = entry.get("UP", math.inf) if "FX" not in entry else entry["FX"]
                kind = INTEGER if name in integer else CONTINUOUS
            id_of[name] = rebuilt.add_var(kind, lo, hi, name)
        for row in row_order:
            if rows[row] == "N":
                continue
            expr = LinExpr()
            for name, cols in columns.items():
                if row in cols:
                    expr.add_term(id_of[name], cols[row])
            sense = {"L": Sense.LE, "G": Sense.GE, "E": Sense.EQ}[rows[row]]
            rebuilt.add_constraint(expr, sense, rhs.get(row, 0.0), row)
        obj = LinExpr(constant=-rhs.get("OBJ", 0.0))
        for name, cols in columns.items():
            if "OBJ" in cols:
                obj.add_term(id_of[name], cols["OBJ"])
        rebuilt.objective = obj

        expected = brute_force_optimum(model)
        res = solve_milp(rebuilt)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(expected, abs=1e-9)
