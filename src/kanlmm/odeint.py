"""Equidistant trajectories and high-accuracy reference integration.

Reference trajectories are produced by an 8th-order Runge-Kutta run at
tolerances near rounding level (rtol = atol = 1e-13); the integrator
builds its interpolant only on the steps that hold a requested grid
time.  Grid times are generated by multiplication, t_n = t0 + n * h,
never by repeated addition, so the grid is bitwise reproducible.

The module also hosts the package's writers: ``write_csv`` for every
CSV table and ``write_json`` for every JSON report.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy.integrate import solve_ivp

Array = npt.NDArray[np.float64]

TOLERANCE = 1e-13  # DOP853 rtol and atol of every integration


class IntegrationError(RuntimeError):
    """Reference or model integration failed."""


class NonFiniteStateError(IntegrationError):
    """Integration produced an overflow, NaN, or infinity."""


@dataclass(frozen=True)
class Trajectory:
    """States sampled on the uniform grid t_n = t0 + n*h, n = 0..n_steps.

    ``states`` has shape (n_steps + 1, d); the end ``t1`` is derived,
    bitwise ``times[-1]``.
    """

    t0: float
    h: float
    states: Array

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError("states must be a (n_points >= 2, d) array")
        if not np.all(np.isfinite(states)):
            raise NonFiniteStateError("trajectory contains non-finite states")
        object.__setattr__(self, "states", states)
        if not (self.h > 0 and np.isfinite(self.t1)):  # a NaN or inf t0 or h reaches t1
            raise ValueError(f"need finite grid times and h > 0, got t0={self.t0}, h={self.h}")

    @property
    def t1(self) -> float:
        return self.t0 + self.h * self.n_steps

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> Array:
        return self.t0 + self.h * np.arange(self.n_steps + 1)


def grid_size(t0: float, t1: float, h: float) -> int:
    """Number of steps n1 with t0 + n1*h = t1; errors if h does not divide."""
    span = t1 - t0
    if not (h > 0 and np.isfinite(span / h)):  # a NaN or inf t0, t1 or h, or too many steps
        raise ValueError(f"need h > 0 and a finite grid, got [{t0}, {t1}] and h={h}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    n1 = int(round(span / h))
    if n1 < 1 or abs(n1 * h - span) > 1e-9 * max(abs(span), 1.0):
        raise ValueError(f"step h={h} does not evenly divide [{t0}, {t1}]")
    return n1


def integrate(field, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Integrate dx/dt = field(x) and sample on the uniform grid of step h.

    ``field`` maps a state vector to its derivative; the system is
    autonomous.  A grid too large for memory is a ValueError; other
    failures are those of ``integrate_at``.
    """
    n1 = grid_size(t0, t1, h)
    try:
        times = t0 + h * np.arange(n1 + 1)
    except MemoryError:
        raise ValueError(f"a grid of {n1} steps does not fit in memory") from None
    # the last grid time can pass t1 by an ulp; the run ends on the grid
    states = integrate_at(field, x0, t0, times[-1], times)
    return Trajectory(t0=float(t0), h=float(h), states=states)


def integrate_at(field, x0, t0: float, t1: float, times) -> Array:
    """Integrate dx/dt = field(x) over [t0, t1]; the states at ``times``.

    Returns shape (len(times), d), one row per entry of ``times``, which
    must lie in [t0, t1] and may repeat or come in any order.  Each state
    is read from the interpolant of the step that holds its time.  Raises
    NonFiniteStateError if the field at x0 or a state is not finite, and
    IntegrationError if the integrator gives up; an overflow prints nothing.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite vector")
    # the integrator takes strictly increasing times only
    t_eval, rows = np.unique(np.asarray(times, dtype=np.float64), return_inverse=True)
    if t_eval.size == 0:
        raise ValueError("times must not be empty")

    with np.errstate(over="ignore", invalid="ignore"):
        # a NaN field at x0 makes solve_ivp's first step NaN, and it never stops
        if not np.all(np.isfinite(field(x0))):
            raise NonFiniteStateError("field is not finite at the initial state")
        sol = solve_ivp(lambda _t, y: field(y), (t0, t1), x0, method="DOP853",
                        rtol=TOLERANCE, atol=TOLERANCE, t_eval=t_eval)
    if not sol.success:
        raise IntegrationError(sol.message or "integration failed")
    states = sol.y.T[rows]
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("integration produced non-finite states")
    return states


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the header line, then one ``\\n``-ended line per row.

    Floats get 17 significant digits, so they read back exactly, and any
    other value ``str``.  A numpy row becomes Python numbers row by row.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, np.ndarray):
                row = row.tolist()
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON with one-space indents, sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as a ``write_csv`` table with header ``t,x1,...,xd``."""
    header = ["t"] + [f"x{i + 1}" for i in range(traj.dim)]
    write_csv(path, header, np.column_stack([traj.times, traj.states]))


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by save_trajectory (or any equidistant CSV)."""
    with open(path) as fh:
        header = fh.readline().split(",")
        if header[0].strip() != "t" or len(header) < 2:
            raise ValueError("trajectory CSV must start with a 't,x1,...' header")
        with warnings.catch_warnings():
            # a header-only file is reported below, as too few samples
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                # numpy counts data rows, not file lines, and suggests its own options
                raise ValueError(_first_bad_line(path, len(header)) or str(exc)) from None
    if len(data) < 2:
        raise ValueError("trajectory must contain at least 2 samples")
    if data.shape[1] != len(header):
        raise ValueError("trajectory rows do not match the header width")
    if not np.all(np.isfinite(data)):
        raise ValueError("trajectory CSV contains non-finite values")
    times, states = data[:, 0], data[:, 1:]
    h = (times[-1] - times[0]) / (len(times) - 1)
    if h <= 0 or np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("trajectory time column is not equidistant")
    return Trajectory(t0=float(times[0]), h=float(h), states=states)


def _first_bad_line(path, width: int) -> str | None:
    """Which line of a CSV that ``np.loadtxt`` rejects is ragged or not numeric, if one is."""
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if number == 1 or not line.strip():
                continue
            values = line.split(",")
            if len(values) != width:
                return f"trajectory CSV line {number} has {len(values)} values, the header {width}"
            for v in values:
                try:
                    float(v)
                except ValueError:
                    return f"trajectory CSV line {number}: {v.strip()!r} is not a number"
    return None
