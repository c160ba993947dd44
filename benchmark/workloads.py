"""Inputs, timed operation and correctness check of each benchmark workload.

A workload has three parts:

* ``setup(work_dir, seed, tracer)`` generates every input the program
  sees (reference trajectory and its CSV file) and returns a ``Case``.
  Its cost is reported as ``setup_s``.
* ``run(case, tracer)`` is one operation of the closed loop; its wall
  time is ``wall_s``.
* ``check(case, out)`` returns ``(ok, field_rms)``.  A failed check or
  a raised exception counts as a failed operation.

Every call into the package goes through ``tracer.call`` under a public
name, so the traced run records one span per call and the untraced run
pays only a function call.  ``toy=True`` shrinks every size for the
smoke test.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kanlmm import odeint, systems, training
from kanlmm.odeint import Trajectory
from kanlmm.systems import SystemDef
from kanlmm.training import TrainConfig

# Criterion-7 protocol (README): AM-1, J_ah, k=3, G=64, hidden 16, lr 0.1,
# beta2 0.99 on the linear system over [0, 1] at h = 1e-3.
CRITERION7 = dict(family="am", steps=1, degree=3, intervals=64, hidden=16,
                  learning_rate=0.1, beta2=0.99, loss_kind="jah")


@dataclass
class Case:
    """Everything one workload's operation and its layer timings need."""

    system: SystemDef
    traj: Trajectory            # the workload's data trajectory (written to csv)
    csv: Path
    config: TrainConfig         # the workload's training run
    work_dir: Path              # holds the csv, the model document and outputs
    rhs_calls: int              # field calls of the reference integration

    @property
    def model(self) -> Path:
        """Model document: what `kanlmm train --iters 0` writes for config."""
        return self.work_dir / "model.json"


class CountingField:
    """A state -> derivative callable that counts its calls."""

    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, y):
        self.calls += 1
        return self.field(y)


def _reference(tracer, sysd: SystemDef, x0, t1: float, h: float, work_dir: Path):
    """Integrate, write the CSV, return (trajectory, csv path, rhs calls)."""
    counter = CountingField(sysd.field)
    traj = tracer.call("odeint.integrate", odeint.integrate, counter, x0, 0.0, t1, h)
    csv = work_dir / "data.csv"
    tracer.call("odeint.save_trajectory", odeint.save_trajectory, traj, csv)
    return traj, csv, counter.calls


class Train:
    """``training.train`` on one trajectory; field_rms is the windowed RMS field error."""

    def __init__(self, name: str, toy: bool):
        self.name = name
        self.toy = toy

    def _inputs(self, seed: int):
        if self.name == "train-linear":
            sysd = systems.linear_system()
            cfg = dict(CRITERION7, iterations=10)
            t1, h, x0 = 1.0, 1e-3, sysd.x0
            if self.toy:
                cfg.update(iterations=2, intervals=8, hidden=4)
                h = 1e-2
            return sysd, x0, t1, h, TrainConfig(seed=seed, **cfg)
        # Opinion model over [0, 1] at h = 1e-2 (101 samples): the first
        # second holds the whole transient and all of the integration cost.
        # The seed relabels the agents of the paper's seed-0 initial state,
        # which changes the data the network sees but not the cost of the
        # reference integration (independent draws vary it 2.5x).
        dim, t1, iters = (4, 0.2, 2) if self.toy else (50, 1.0, 6)
        sysd = systems.opinion_system(dim=dim, seed=0, t_train=(0.0, t1))
        order = np.random.default_rng(seed).permutation(dim) if seed else np.arange(dim)
        cfg = TrainConfig(family="am", steps=1, degree=3, intervals=8 if self.toy else 64,
                          iterations=iters, seed=seed)
        return sysd, sysd.x0[order], t1, 1e-2, cfg

    def setup(self, work_dir: Path, seed: int, tracer) -> Case:
        sysd, x0, t1, h, cfg = self._inputs(seed)
        traj, csv, calls = _reference(tracer, sysd, x0, t1, h, work_dir)
        return Case(sysd, traj, csv, cfg, work_dir, calls)

    def run(self, case: Case, tracer):
        return tracer.call("training.train", training.train, case.config, case.traj,
                           true_field=case.system.field)

    def check(self, case: Case, out) -> tuple[bool, float]:
        _, report = out
        trace = report.loss_trace
        ok = (trace.size > 0 and bool(np.all(np.isfinite(trace)))
              and np.isfinite(report.final_loss) and report.best_loss < trace[0]
              and np.isfinite(report.seminorm_error))
        return bool(ok), float(report.seminorm_error)


def make(name: str, toy: bool = False):
    if name in ("train-linear", "train-opinion"):
        return Train(name, toy)
    raise ValueError(f"unknown workload {name!r}")
