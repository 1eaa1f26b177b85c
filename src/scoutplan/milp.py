"""Solver-agnostic mixed-integer linear program representation.

Models are built incrementally (single writer) and then treated as immutable;
a finished model can be shared across concurrent solvers.  The objective is
always minimized.  Quadratic terms never appear here: cost products are
linearized before they reach this layer.

model_arrays is the one place a model's expressions become matrix form;
evaluation, the LP relaxation and MPS export all read its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

FEAS_TOL = 1e-6
INT_TOL = 1e-6


class Sense(str, Enum):
    LE = "<="
    EQ = "=="
    GE = ">="


@dataclass(frozen=True)
class VarDef:
    """One decision variable; ids are dense in insertion order."""

    id: int
    kind: str
    lower: float
    upper: float
    name: str


class LinExpr:
    """Sparse linear expression: coefficient map plus a constant term."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: dict[int, float] | None = None, constant: float = 0.0):
        self.coeffs: dict[int, float] = {}
        if coeffs:
            for var, coef in coeffs.items():
                self.add_term(var, coef)
        self.constant = constant

    def add_term(self, var: int, coef: float) -> "LinExpr":
        if not math.isfinite(coef):
            raise ValueError(f"non-finite coefficient for variable {var}")
        if coef == 0.0:
            return self
        new = self.coeffs.get(var, 0.0) + coef
        if new == 0.0:
            self.coeffs.pop(var, None)
        else:
            self.coeffs[var] = new
        return self

    def __repr__(self):
        terms = " + ".join(f"{c}*x{v}" for v, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms or '0'} + {self.constant})"


@dataclass(frozen=True)
class Constraint:
    expr: LinExpr
    sense: Sense
    rhs: float
    name: str


@dataclass
class Model:
    """Minimization MILP: variable table, constraints, linear objective."""

    name: str = "model"
    variables: list[VarDef] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: LinExpr = field(default_factory=LinExpr)
    _names: set[str] = field(default_factory=set, repr=False)
    _arrays: tuple | None = field(default=None, repr=False, compare=False)

    def add_var(self, kind: str, lower: float, upper: float, name: str) -> int:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        if kind == BINARY and (lower, upper) != (0.0, 1.0):
            raise ValueError(f"binary variable {name!r} must have bounds [0, 1]")
        if kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ValueError(f"unknown variable kind {kind!r}")
        vid = len(self.variables)
        self.variables.append(VarDef(vid, kind, float(lower), float(upper), name))
        self._names.add(name)
        return vid

    def add_constraint(self, expr: LinExpr, sense: Sense, rhs: float, name: str) -> int:
        if not math.isfinite(rhs):
            raise ValueError(f"constraint {name!r}: non-finite rhs")
        self.constraints.append(Constraint(expr, sense, float(rhs), name))
        return len(self.constraints) - 1


_SENSE_ROW = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}


@dataclass(frozen=True)
class ModelArrays:
    """min objective @ x + constant  s.t.  rows x {<=,==,>=} rhs,
    lower <= x <= upper, x integral where integer is set.  Read-only."""

    objective: np.ndarray
    constant: float
    rows: sp.csr_matrix
    senses: np.ndarray          # one of "L", "E", "G" per row
    rhs: np.ndarray             # constraint rhs minus the expression's constant
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray         # True for binary and integer variables


def model_arrays(model: Model) -> ModelArrays:
    """The model's lowering to arrays, computed once and kept on the model.

    A model that gains variables or constraints, or is given a new objective,
    is lowered again; expressions are not edited once added to a model.
    """
    # LinExpr compares by identity, so a replaced objective changes the stamp
    stamp = (len(model.variables), len(model.constraints), model.objective)
    if model._arrays is not None and model._arrays[0] == stamp:
        return model._arrays[1]
    n = len(model.variables)
    objective = np.zeros(n)
    for var, coef in model.objective.coeffs.items():
        if not 0 <= var < n:
            raise ValueError(f"objective references unknown variable {var}")
        objective[var] = coef
    data, indices, indptr = [], [], [0]
    for con in model.constraints:
        for var, coef in sorted(con.expr.coeffs.items()):
            if not 0 <= var < n:
                raise ValueError(f"constraint {con.name!r} references unknown variable {var}")
            indices.append(var)
            data.append(coef)
        indptr.append(len(indices))
    rows = sp.csr_matrix((np.array(data, dtype=float), np.array(indices, dtype=np.int64),
                          np.array(indptr, dtype=np.int64)), shape=(len(model.constraints), n))
    arrays = ModelArrays(
        objective, model.objective.constant, rows,
        np.array([_SENSE_ROW[con.sense] for con in model.constraints], dtype="<U1"),
        np.array([con.rhs - con.expr.constant for con in model.constraints], dtype=float),
        np.array([var.lower for var in model.variables], dtype=float),
        np.array([var.upper for var in model.variables], dtype=float),
        np.array([var.kind in (BINARY, INTEGER) for var in model.variables], dtype=bool),
    )
    for array in (objective, rows.data, rows.indices, rows.indptr, arrays.senses,
                  arrays.rhs, arrays.lower, arrays.upper, arrays.integer):
        array.flags.writeable = False
    model._arrays = (stamp, arrays)
    return arrays


@dataclass(frozen=True)
class Violation:
    kind: str      # "constraint" | "bound" | "integrality"
    name: str
    amount: float


@dataclass(frozen=True)
class EvalResult:
    objective: float
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


def assignment_vector(model: Model, assignment) -> np.ndarray:
    """A fresh float vector of the model's values from any indexable that
    maps every variable id to its value (array, list or dict)."""
    n = len(model.variables)
    if isinstance(assignment, np.ndarray) and len(assignment) >= n:
        return np.array(assignment[:n], dtype=float)
    for var in model.variables:
        try:
            assignment[var.id]
        except (KeyError, IndexError):
            raise KeyError(f"assignment missing variable {var.name!r} (id {var.id})")
    return np.array([assignment[i] for i in range(n)], dtype=float)


def evaluate(model: Model, assignment, feas_tol: float = FEAS_TOL,
             int_tol: float = INT_TOL) -> EvalResult:
    """Objective value and all constraint/bound/integrality violations.

    assignment maps variable id to value, read by assignment_vector.
    A non-finite value is a bound violation of infinite amount.  Violations
    come per variable in id order, bound before integrality, then per row.
    """
    arrays = model_arrays(model)
    x = assignment_vector(model, assignment)

    with np.errstate(invalid="ignore"):
        bound_excess = np.where(np.isfinite(x), np.maximum(arrays.lower - x,
                                                           x - arrays.upper), math.inf)
        fraction = np.where(arrays.integer, np.abs(x - np.round(x)), 0.0)
        slack = arrays.rows @ x - arrays.rhs
        objective = arrays.constant + float(arrays.objective @ x)
    row_excess = np.where(arrays.senses == "L", slack,
                          np.where(arrays.senses == "G", -slack, np.abs(slack)))

    violations = []
    for i in np.flatnonzero((bound_excess > feas_tol) | (fraction > int_tol)):
        if bound_excess[i] > feas_tol:
            violations.append(Violation("bound", model.variables[i].name,
                                        float(bound_excess[i])))
        if fraction[i] > int_tol:
            violations.append(Violation("integrality", model.variables[i].name,
                                        float(fraction[i])))
    for i in np.flatnonzero(row_excess > feas_tol):
        violations.append(Violation("constraint", model.constraints[i].name,
                                    float(row_excess[i])))
    return EvalResult(objective, tuple(violations))


# -- MPS export ---------------------------------------------------------------

def _num(value: float) -> str:
    text = f"{value:.12g}"
    return text


def export_mps(model: Model) -> str:
    """Fixed-format MPS text for the model.

    Column order follows variable ids and row order the constraint list, so
    identical models produce byte-identical text.  Variable and row names are
    emitted as x<id> / c<index> to respect the 8-character field; the
    objective row is OBJ.  A nonzero objective constant is encoded as an RHS
    entry on OBJ (the usual convention: readers subtract it).
    """
    arrays = model_arrays(model)
    lines = [f"NAME          {model.name.upper()[:8] or 'MODEL'}"]
    lines.append("ROWS")
    lines.append(" N  OBJ")
    for i, sense in enumerate(arrays.senses):
        lines.append(f" {sense}  c{i}")

    objective = arrays.objective.tolist()
    columns = arrays.rows.tocsc()
    lines.append("COLUMNS")
    marker = 0
    in_int = False
    for var in model.variables:
        is_int = arrays.integer[var.id]
        if is_int and not in_int:
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTORG'")
            marker += 1
            in_int = True
        elif not is_int and in_int:
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
            marker += 1
            in_int = False
        span = slice(columns.indptr[var.id], columns.indptr[var.id + 1])
        entries = [("OBJ", objective[var.id])] if objective[var.id] != 0.0 else []
        entries += [(f"c{row}", coef) for row, coef in
                    zip(columns.indices[span].tolist(), columns.data[span].tolist())]
        for row, coef in entries or [("OBJ", 0.0)]:
            lines.append(f"    x{var.id:<8} {row:<9} {_num(coef)}")
    if in_int:
        lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")

    lines.append("RHS")
    if arrays.constant != 0.0:
        lines.append(f"    RHS       {'OBJ':<9} {_num(-arrays.constant)}")
    for i, rhs in enumerate(arrays.rhs.tolist()):
        if rhs != 0.0:
            name = f"c{i}"
            lines.append(f"    RHS       {name:<9} {_num(rhs)}")

    lines.append("BOUNDS")
    for var in model.variables:
        name = f"x{var.id}"
        if var.kind == BINARY:
            lines.append(f" BV BND       {name}")
            continue
        if var.lower == var.upper:
            lines.append(f" FX BND       {name:<9} {_num(var.lower)}")
            continue
        if math.isinf(var.lower):
            lines.append(f" MI BND       {name}")
        elif var.lower != 0.0 or var.kind == INTEGER:
            lines.append(f" LO BND       {name:<9} {_num(var.lower)}")
        if not math.isinf(var.upper):
            lines.append(f" UP BND       {name:<9} {_num(var.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
