"""Equidistant trajectories and high-accuracy reference integration.

Reference trajectories are produced by an 8th-order Runge-Kutta run at
tolerances near rounding level (rtol = atol = 1e-13) with dense output
evaluated on the requested uniform grid.  Grid times are generated by
multiplication, t_n = t0 + n * h, never by repeated addition, so the
grid is bitwise reproducible.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from scipy.integrate import solve_ivp

Array = npt.NDArray[np.float64]

TOLERANCE = 1e-13  # DOP853 rtol and atol of every integration


class IntegrationError(RuntimeError):
    """Reference or model integration failed."""


class StepUnderflowError(IntegrationError):
    """The adaptive integrator could not meet tolerances with a viable step."""


class NonFiniteStateError(IntegrationError):
    """Integration produced an overflow, NaN, or infinity."""


@dataclass(frozen=True)
class Trajectory:
    """States sampled on the uniform grid t_n = t0 + n*h, n = 0..n_steps.

    ``states`` has shape (n_steps + 1, d).  ``provenance`` records how the
    samples were produced ("reference", "learned", "analytic", or
    "loaded").  It is not saved: the CSV holds t and the states only, and
    ``load_trajectory`` sets it from its argument, "loaded" by default.
    """

    t0: float
    t1: float
    h: float
    states: Array
    provenance: str = "reference"

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError("states must be a (n_points >= 2, d) array")
        if not np.all(np.isfinite(states)):
            raise NonFiniteStateError("trajectory contains non-finite states")
        if not (np.isfinite(self.t0) and np.isfinite(self.h)) or self.h <= 0:
            raise ValueError("t0 must be finite and h positive")
        n1 = states.shape[0] - 1
        span = self.t1 - self.t0
        if abs(n1 * self.h - span) > 1e-12 * max(abs(span), 1.0):
            raise ValueError(
                f"grid mismatch: {n1} steps of h={self.h} do not cover [{self.t0}, {self.t1}]"
            )
        object.__setattr__(self, "states", states)

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
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    span = t1 - t0
    n1 = int(round(span / h))
    if n1 < 1 or abs(n1 * h - span) > 1e-9 * max(abs(span), 1.0):
        raise ValueError(f"step h={h} does not evenly divide [{t0}, {t1}]")
    return n1


def integrate(field, x0, t0: float, t1: float, h: float,
              max_step: float | None = None,
              provenance: str = "reference") -> Trajectory:
    """Integrate dx/dt = field(x) and sample on the uniform grid of step h.

    ``field`` maps a state vector to its derivative; the system is
    autonomous.  Failures are those of ``integrate_at``.
    """
    n1 = grid_size(t0, t1, h)
    times = t0 + h * np.arange(n1 + 1)
    states = integrate_at(field, x0, t0, t1, times, max_step)
    return Trajectory(t0=float(t0), t1=float(t0 + n1 * h), h=float(h),
                      states=states, provenance=provenance)


def integrate_at(field, x0, t0: float, t1: float, times,
                 max_step: float | None = None) -> Array:
    """Integrate dx/dt = field(x) over [t0, t1]; the states at ``times``.

    Returns shape (len(times), d), read from the dense output.  Raises
    StepUnderflowError / NonFiniteStateError when the integrator gives
    up; stiff stretches that only reject steps are retried once with
    max_step = 1e-4 before failing.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if x0.ndim != 1 or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite vector")

    def rhs(_t, y):
        return field(y)

    kwargs = dict(method="DOP853", rtol=TOLERANCE, atol=TOLERANCE, dense_output=True)
    if max_step is not None:
        kwargs["max_step"] = max_step
    sol = solve_ivp(rhs, (t0, t1), x0, **kwargs)
    if not sol.success and max_step is None:
        # One retry with a capped step handles fields with fast transients
        # that defeat the step controller on the first pass.
        kwargs["max_step"] = 1e-4
        sol = solve_ivp(rhs, (t0, t1), x0, **kwargs)
    if not sol.success:
        msg = sol.message or "integration failed"
        if "step size" in msg.lower():
            raise StepUnderflowError(msg)
        raise IntegrationError(msg)
    states = sol.sol(times).T
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("integration produced non-finite states")
    return states


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV: header ``t,x1,...,xd``, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(traj.dim)])
        times = traj.times
        for n in range(traj.n_steps + 1):
            writer.writerow([f"{times[n]:.17g}"] + [f"{v:.17g}" for v in traj.states[n]])


def load_trajectory(path, provenance: str = "loaded") -> Trajectory:
    """Read a trajectory written by save_trajectory (or any equidistant CSV)."""
    with open(path, newline="") as fh:
        return _read_csv(fh, provenance)


def _read_csv(fh, provenance: str) -> Trajectory:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trajectory file") from None
    if not header or header[0].strip() != "t":
        raise ValueError("trajectory CSV must start with a 't,x1,...' header")
    rows = [list(map(float, row)) for row in reader if row]
    if len(rows) < 2:
        raise ValueError("trajectory must contain at least 2 samples")
    data = np.asarray(rows, dtype=np.float64)
    if data.shape[1] != len(header):
        raise ValueError("trajectory rows do not match the header width")
    if not np.all(np.isfinite(data)):
        raise ValueError("trajectory CSV contains non-finite values")
    times, states = data[:, 0], data[:, 1:]
    n1 = len(times) - 1
    h = (times[-1] - times[0]) / n1
    if h <= 0 or np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("trajectory time column is not equidistant")
    return Trajectory(t0=float(times[0]), t1=float(times[-1]), h=float(h),
                      states=states, provenance=provenance)
