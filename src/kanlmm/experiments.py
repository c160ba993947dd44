"""Benchmark experiment protocols.

Each protocol writes plot-ready CSV tables plus a JSON summary to an
output directory.  ``run`` does the steps they share: it creates the
directory, calls the protocol's runner, tags the summary with the
experiment name and scale, writes ``summary.json`` and returns the
summary dict.  A runner holds only its protocol and its own CSV tables,
and runs its cells one after another, in the order it lists them.
Quick scale keeps runtimes at desk level (coarser grids, fewer
iterations) for CI, while full scale runs the reference protocol (k=3,
G=64, h=1e-3, thousands of iterations).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import analysis, discovery, kan, lmm, odeint, systems, training

EXPERIMENT_NAMES = ("scheme-sweep", "kg-sweep", "gronwall", "glycolytic", "opinion")


def _scheme_sweep(out: Path, quick: bool, seed: int) -> dict:
    """Field-recovery error for every scheme family and step count.

    Trains one network per (family, M) cell on the linear-system
    trajectory and records the windowed RMS gap to the true field.
    """
    sys_def = systems.linear_system()
    h = 5e-3 if quick else 1e-3
    iters = 400 if quick else 2200
    g = 16 if quick else 64
    traj = odeint.integrate(sys_def.field, sys_def.x0, *sys_def.t_train, h)
    results = []
    for fam in lmm.FAMILIES:
        for m in range(1, lmm.MAX_STEPS + 1):
            config = training.TrainConfig(family=fam, steps=m, degree=3, intervals=g,
                                          iterations=iters, seed=seed)
            _, report = training.train(config, traj, true_field=sys_def.field)
            results.append({"family": fam, "steps": m,
                            "seminorm_error": report.seminorm_error,
                            "best_loss": report.best_loss})
    odeint.write_csv(out / "scheme_sweep.csv", ["family", "steps", "seminorm_error", "best_loss"],
                     [(r["family"], r["steps"], r["seminorm_error"], r["best_loss"])
                      for r in results])
    return {
        "h": h,
        "iterations": iters,
        "intervals": g,
        "cells": results,
    }


def _kg_sweep(out: Path, quick: bool, seed: int) -> dict:
    """Error as a function of spline degree k and interval count G (AM-1).

    Also evaluates the conditioning and bound calculators per cell and
    fits the single constant C that makes
    measured <= C * kappa2 * (h^p + upper_bound) hold across the sweep;
    C is reported, not asserted, since the theory leaves it unspecified.
    """
    sys_def = systems.linear_system()
    h = 5e-3 if quick else 1e-3
    iters = 300 if quick else 2200
    ks = (2, 3, 4, 5)
    gs = (4, 8, 16, 32, 64)
    traj = odeint.integrate(sys_def.field, sys_def.x0, *sys_def.t_train, h)
    scheme = lmm.scheme("am", 1)
    kappa = discovery.condition_number(lmm.grid_system(scheme, traj))
    results = []
    for k in ks:
        for g in gs:
            config = training.TrainConfig(family="am", steps=1, degree=k, intervals=g,
                                          iterations=iters, seed=seed)
            net, report = training.train(config, traj, true_field=sys_def.field)
            lip = analysis.lipschitz_estimate(net)
            radius = float(np.max(net.input_hi - net.input_lo) / 2.0)
            holder = analysis.HolderSpec(alpha=1.0, lam=1.0, radius=radius)
            bound = analysis.upper_bound(holder, k, g, net.hidden, net.d_in, lip)
            results.append({"k": k, "G": g, "seminorm_error": report.seminorm_error,
                            "upper_bound": bound, "lipschitz": lip})
    envelope = [r["seminorm_error"] / (kappa * (h ** scheme.order + r["upper_bound"]))
                for r in results]
    fitted_c = float(max(envelope))
    slopes = {}
    for k in ks:
        sub = [r for r in results if r["k"] == k]
        logg = np.log([r["G"] for r in sub])
        loge = np.log([r["seminorm_error"] for r in sub])
        slopes[str(k)] = float(-np.polyfit(logg, loge, 1)[0])
    odeint.write_csv(out / "kg_sweep.csv", ["k", "G", "seminorm_error", "upper_bound", "lipschitz"],
                     [(r["k"], r["G"], r["seminorm_error"], r["upper_bound"], r["lipschitz"])
                      for r in results])
    return {
        "h": h,
        "iterations": iters,
        "kappa2": kappa,
        "fitted_C": fitted_c,
        "rate_vs_inverse_G_per_k": slopes,
        "cells": results,
    }


def _gronwall(out: Path, quick: bool, seed: int) -> dict:
    """Trained-model trajectory error versus prediction horizon T = 1..10."""
    sys_def = systems.linear_system()
    h = 2e-3 if quick else 1e-3
    iters = 800 if quick else 2200
    traj = odeint.integrate(sys_def.field, sys_def.x0, *sys_def.t_train, h)
    config = training.TrainConfig(family="am", steps=1, degree=3,
                                  intervals=32 if quick else 64,
                                  iterations=iters, seed=seed)
    net, report = training.train(config, traj, true_field=sys_def.field)
    horizons = list(range(1, 11))
    table = analysis.gronwall_study(kan.field(net), sys_def.field, sys_def.x0, horizons)
    slope, corr = analysis.fit_log_linear([t for t, _ in table], [e for _, e in table])
    odeint.write_csv(out / "gronwall.csv", ["T", "linf_error"], table)
    return {
        "h": h,
        "iterations": iters,
        "seminorm_error": report.seminorm_error,
        "log_error_slope": slope,
        "log_error_correlation": corr,
        "table": [{"T": t, "linf_error": e} for t, e in table],
    }


def _glycolytic(out: Path, quick: bool, seed: int) -> dict:
    """Train on the oscillator over [0, 10] and predict beyond it."""
    sys_def = systems.glycolytic_system()
    h = 1e-2 if quick else 1e-3
    iters = 400 if quick else 2200
    g = 16 if quick else 64
    t_end = sys_def.t_train[1]
    t_pred = 12.0 if quick else 20.0
    traj = odeint.integrate(sys_def.field, sys_def.x0, 0.0, t_end, h)
    odeint.save_trajectory(traj, out / "reference.csv")
    config = training.TrainConfig(family="am", steps=1, degree=3, intervals=g,
                                  iterations=iters, seed=seed)
    net, report = training.train(config, traj, true_field=sys_def.field)
    kan.save_model(net, out / "model.json")
    learned = odeint.integrate(kan.field(net), sys_def.x0, 0.0, t_pred, h)
    reference_long = odeint.integrate(sys_def.field, sys_def.x0, 0.0, t_pred, h)
    odeint.save_trajectory(learned, out / "learned.csv")
    n_train = traj.n_steps
    gap = np.max(np.abs(learned.states - reference_long.states), axis=1)
    return {
        "h": h,
        "iterations": iters,
        "intervals": g,
        "seminorm_error": report.seminorm_error,
        "linf_error_train_interval": float(gap[: n_train + 1].max()),
        "linf_error_full_interval": float(gap.max()),
        "min_state_train_interval": float(traj.states.min()),
    }


def _opinion(out: Path, quick: bool, seed: int) -> dict:
    """High-dimensional opinion model: per-dimension trajectory errors.

    Quick scale trains the 50-agent instance on a short interval; full
    scale runs d in {50, 100, 200, 400} over [0, 10] with 3000
    iterations, measured at 0.38 s each for d = 50, 1.17 s for d = 100 and
    9.8 s for d = 200 (n = 10 001); d = 200 and 400 are untested there.
    """
    dims = (50,) if quick else (50, 100, 200, 400)
    h = 1e-2 if quick else 1e-3
    t_end = 2.0 if quick else 10.0
    iters = 200 if quick else 3000
    g = 8 if quick else 64
    rows = []
    for d in dims:
        sys_def = systems.opinion_system(dim=d, seed=seed)
        traj = odeint.integrate(sys_def.field, sys_def.x0, 0.0, t_end, h)
        config = training.TrainConfig(family="am", steps=1, degree=3, intervals=g,
                                      iterations=iters, seed=seed)
        net, report = training.train(config, traj, true_field=sys_def.field)
        learned = odeint.integrate(kan.field(net), sys_def.x0, 0.0, t_end, h)
        linf = float(np.max(np.abs(learned.states - traj.states)))
        rows.append({"d": d, "linf_error": linf,
                     "seminorm_error": report.seminorm_error,
                     "components_start": systems.opinion_component_count(traj.states[0]),
                     "components_end": systems.opinion_component_count(traj.states[-1])})
    odeint.write_csv(out / "opinion.csv", ["d", "linf_error", "seminorm_error"],
                     [(r["d"], r["linf_error"], r["seminorm_error"]) for r in rows])
    return {
        "h": h,
        "t_end": t_end,
        "iterations": iters,
        "intervals": g,
        "cells": rows,
    }


_RUNNERS = {
    "scheme-sweep": _scheme_sweep,
    "kg-sweep": _kg_sweep,
    "gronwall": _gronwall,
    "glycolytic": _glycolytic,
    "opinion": _opinion,
}


def run(name: str, out_dir, quick: bool = True, seed: int = 0) -> dict:
    """Run an experiment by name (see EXPERIMENT_NAMES); returns its summary.

    Creates ``out_dir``, lets the runner write its tables there, and
    writes the summary, tagged with ``experiment`` and ``quick``, to
    ``out_dir/summary.json``.
    """
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}, expected one of {sorted(_RUNNERS)}"
        ) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = runner(out, quick, seed)
    summary.update(experiment=name, quick=quick)
    odeint.write_json(out / "summary.json", summary)
    return summary
