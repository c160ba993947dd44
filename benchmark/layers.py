"""Per-layer timings of the traced run.

Each round calls the public functions of every module on the workload's
own inputs, each call inside a span named after the function.  The
per-layer metrics are medians over the spans of one name; derived
metrics (self times, per-iteration cost) subtract medians of the spans
they contain.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np

from kanlmm import bspline, cli, discovery, kan, lmm, odeint, training

REPEATS = 3                # back-to-back batch forward/backward/basis calls per round
POINT_CALLS = 200          # single-point calls per round (basis, field)
FORWARD_POINT_CALLS = 1000  # single-point kan.forward calls, first round only
CONDITION_SCHEMES = (("am", 1), ("ab", 3))


def solve_grid_argv(case, family: str, steps: int, out) -> list[str]:
    """`kanlmm solve-grid` on the case's CSV, with the true field as ftrue."""
    argv = ["solve-grid", "--data", str(case.csv), "--scheme", family, "--steps", str(steps),
            "--system", case.system.name, "--out", str(out)]
    if case.system.name == "opinion":
        argv += ["--dim", str(case.system.dim)]
    return argv


def hidden_points(net: kan.KanNetwork, states) -> np.ndarray:
    """Rescaled hidden sums zhat of every sample, flattened (n * hidden,)."""
    xhat = np.clip((states - net.input_lo) / (net.input_hi - net.input_lo), 0.0, 1.0)
    vals = bspline.eval_basis(net.inner_basis, xhat.ravel()).reshape(*xhat.shape, -1)
    z = np.einsum("biq,jiq->bj", vals, net.inner_coeffs)
    return np.clip((z - net.hidden_lo) / (net.hidden_hi - net.hidden_lo), 0.0, 1.0).ravel()


def layer_round(tr, case, first: bool) -> dict:
    """One pass over every layer; returns the untimed measurements of this round."""
    cfg, traj = case.config, case.traj
    extra = {}
    with tr.span("layers"):
        net0, _ = tr.call("training.train[iters=0]", training.train,
                          replace(cfg, iterations=0), traj)
        if not case.model.exists():
            tr.call("kan.save_model", kan.save_model, net0, case.model)
        net = tr.call("kan.load_model", kan.load_model, case.model)
        tr.call("training.train[iters=N]", training.train, cfg, traj)
        tr.call("kan.init_network", kan.init_network, d_in=traj.dim, d_out=traj.dim,
                hidden=cfg.hidden, degree=cfg.degree, intervals=cfg.intervals,
                input_range=training.input_range_from_states(traj.states), seed=cfg.seed)

        sch = tr.call("lmm.scheme", lmm.scheme, cfg.family, cfg.steps)
        stencil = tr.call("training.ResidualStencil", training.ResidualStencil,
                          sch, traj, cfg.loss_kind)
        ev = tr.call("kan.BatchEvaluator", kan.BatchEvaluator, net, traj.states)
        zhat = hidden_points(net, traj.states)
        # Back to back, as inside a training run, so that the freed
        # temporaries of one call are reused by the next.
        for _ in range(REPEATS):
            u = tr.call("kan.BatchEvaluator.forward", ev.forward,
                        net.inner_coeffs, net.outer_coeffs)
            _, grad_u = tr.call("training.ResidualStencil.loss_and_grad",
                                stencil.loss_and_grad, u)
            tr.call("kan.BatchEvaluator.backward", ev.backward, net.outer_coeffs, grad_u)
        for _ in range(REPEATS):
            tr.call("bspline.eval_basis", bspline.eval_basis, net.outer_basis, zhat)
            tr.call("bspline.eval_basis_derivative", bspline.eval_basis_derivative,
                    net.outer_basis, zhat)

        n = traj.states.shape[0]
        xhat = np.clip((traj.states - net.input_lo) / (net.input_hi - net.input_lo), 0.0, 1.0)
        for i in range(POINT_CALLS):
            tr.call("bspline.eval_basis[point]", bspline.eval_basis, net.inner_basis, xhat[i % n])
        if first:
            for i in range(FORWARD_POINT_CALLS):
                tr.call("kan.forward[point]", kan.forward, net, traj.states[i % n])
            tracemalloc.start()
            try:
                kan.BatchEvaluator(net, traj.states).forward(net.inner_coeffs, net.outer_coeffs)
                extra["forward_peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Data-side layers run on the workload's own trajectory and CSV.
        data = case.traj
        for i in range(POINT_CALLS):
            tr.call("systems.field", case.system.field, data.states[i % data.states.shape[0]])
        for c in range(data.dim):
            system = tr.call("discovery.assemble", discovery.assemble, sch, data, c)
            tr.call("discovery.solve_grid_values", discovery.solve_grid_values, system)
        for family, steps in CONDITION_SCHEMES:
            system = discovery.assemble(lmm.scheme(family, steps), data, 0)
            tr.call(f"discovery.condition_number[{family}{steps}]",
                    discovery.condition_number, system)
        tr.call("odeint.load_trajectory", odeint.load_trajectory, case.csv)
        argv = solve_grid_argv(case, "am", 1, case.work_dir / "layer-grid.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = tr.call("cli.main[solve-grid am1]", cli.main, argv)
        if code != 0:
            raise RuntimeError(f"kanlmm solve-grid exited with {code}")
    return extra


def _q(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def metrics(tr, case, extras: list[dict], overhead_s: tuple):
    """Per-layer metrics as {name: (value, unit, sample count)}.

    ``overhead_s`` comes from the traced operations, as a (median, count)
    pair; ``odeint.rhs_calls`` counts the field calls of the set-up's
    reference integration.
    """
    def med(name):
        values = tr.durations(name)
        return statistics.median(values), len(values)

    out = {}

    def put(name, value, unit, count):
        out[name] = (float(value), unit, int(count))

    basis, nb = med("bspline.eval_basis")
    deriv, nd = med("bspline.eval_basis_derivative")
    fwd, nf = med("kan.BatchEvaluator.forward")
    bwd, nbw = med("kan.BatchEvaluator.backward")
    lag, nl = med("training.ResidualStencil.loss_and_grad")
    t0, n0 = med("training.train[iters=0]")
    tn, nn = med("training.train[iters=N]")
    iters = case.config.iterations
    iter_s = (tn - t0) / iters
    put("bspline.eval_basis_ms", basis * 1e3, "ms", nb)
    put("bspline.eval_basis_derivative_ms", deriv * 1e3, "ms", nd)
    v, c = med("bspline.eval_basis[point]")
    put("bspline.eval_basis_point_us", v * 1e6, "us", c)

    v, c = med("kan.BatchEvaluator")
    put("kan.evaluator_build_ms", v * 1e3, "ms", c)
    v, c = med("kan.init_network")
    put("kan.init_network_ms", v * 1e3, "ms", c)
    put("kan.forward_ms", fwd * 1e3, "ms", nf)
    put("kan.forward_self_ms", (fwd - basis - deriv) * 1e3, "ms", min(nf, nb, nd))
    put("kan.backward_ms", bwd * 1e3, "ms", nbw)
    peaks = [e["forward_peak_alloc_bytes"] for e in extras if "forward_peak_alloc_bytes" in e]
    put("kan.forward_peak_alloc_mb", statistics.median(peaks) / 2**20, "MB", len(peaks))
    points = tr.durations("kan.forward[point]")
    put("kan.forward_point_us_p50", _q(points, 0.5) * 1e6, "us", len(points))
    put("kan.forward_point_us_p99", _q(points, 0.99) * 1e6, "us", len(points))
    v, c = med("kan.load_model")
    put("kan.load_model_ms", v * 1e3, "ms", c)

    v, c = med("training.ResidualStencil")
    put("training.stencil_build_ms", v * 1e3, "ms", c)
    put("training.loss_and_grad_ms", lag * 1e3, "ms", nl)
    put("training.train_fixed_s", t0, "s", n0)
    put("training.iter_ms", iter_s * 1e3, "ms", min(n0, nn))
    put("training.adam_self_ms", (iter_s - fwd - bwd - lag) * 1e3, "ms", min(n0, nn, nf))

    v, c = med("lmm.scheme")
    put("lmm.scheme_ms", v * 1e3, "ms", c)

    asm, na = med("discovery.assemble")
    sol, ns = med("discovery.solve_grid_values")
    put("discovery.assemble_ms", asm * 1e3, "ms", na)
    put("discovery.solve_grid_values_ms", sol * 1e3, "ms", ns)
    cond = {}
    for family, steps in CONDITION_SCHEMES:
        key = f"{family}{steps}"
        cond[key], c = med(f"discovery.condition_number[{key}]")
        put(f"discovery.condition_number_{key}_s", cond[key], "s", c)

    load, nlo = med("odeint.load_trajectory")
    put("odeint.load_trajectory_s", load, "s", nlo)
    v, c = med("odeint.save_trajectory")
    put("odeint.save_trajectory_s", v, "s", c)
    v, c = med("odeint.integrate")
    put("odeint.integrate_s", v, "s", c)
    put("odeint.rhs_calls", case.rhs_calls, "count", 1)

    field, nfe = med("systems.field")
    put("systems.field_eval_us", field * 1e6, "us", nfe)
    # The CLI call minus the children timed above (CSV load, assembly and
    # forward substitution of every component, the ftrue column, kappa_2);
    # what remains is argument handling and CSV formatting and writing.
    cli_s, nc = med("cli.main[solve-grid am1]")
    rows = case.traj.states.shape[0]
    children = load + case.traj.dim * (asm + sol) + rows * field + cond["am1"]
    put("cli.solve_grid_self_s", cli_s - children, "s", nc)
    put("trace.overhead_s", overhead_s[0], "s", overhead_s[1])
    return out
