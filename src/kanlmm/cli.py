"""Command-line front end.

Subcommands: gen, solve-grid, train, predict, bounds, experiment.
Precedence is defaults < flags < config file: a JSON config passed via
--config overrides anything given on the command line, so a config file
fully pins down a run.  Its keys are the subcommand's option names
(``out_dir`` for ``--out-dir``); each value is parsed as that option's
flag would be, and unknown keys are rejected.

``train --report`` and ``bounds --out`` write every field of
``training.TrainReport`` and ``analysis.BoundsReport``, so a field added
to a report reaches the JSON with no edit here.  Tables
and reports are written by ``odeint.write_csv`` and ``odeint.write_json``.

Exit codes: 0 success, 2 usage/validation, 3 I/O, 4 integration failure
or a singular or unstable grid-value system (solve-grid writes nothing
then), 5 model-document error, 6 training divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import analysis, discovery, experiments, kan, lmm, odeint, systems, training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTEGRATION = 4
EXIT_MODEL = 5
EXIT_DIVERGED = 6


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ValueError(f"expected a comma-separated number list, got {text!r}") from None


def _system_from_args(args, seed: int = 0) -> systems.SystemDef:
    name = args.system.lower()
    if name == "opinion":
        return systems.opinion_system(dim=args.dim, alpha=args.alpha, seed=seed)
    return systems.by_name(name)


def _true_field(args, traj: odeint.Trajectory):
    """The field of the ``--system`` that ``traj`` samples, or None without one."""
    if not args.system:
        return None
    sys_def = _system_from_args(args)  # no seed: it draws only the opinion x0
    if sys_def.dim != traj.dim:
        raise ValueError(f"system dimension {sys_def.dim} != trajectory dim {traj.dim}")
    return sys_def.field


def _config_flags(path, command: argparse.ArgumentParser) -> list[str]:
    """A JSON config document as flags of ``command``'s parser."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(doc) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in doc.items():
        action = options[key]
        if action.nargs == 0:  # --flag / --no-flag
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
            flags.append(action.option_strings[0 if value else 1])
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            flags.append(f"{action.option_strings[0]}={value}")
        else:
            raise ValueError(f"config key {key!r} must be a string or a number, got {value!r}")
    return flags


def cmd_gen(args) -> int:
    sys_def = _system_from_args(args, args.seed)
    x0 = _parse_vector(args.x0) if args.x0 else sys_def.x0
    if x0.shape != (sys_def.dim,):
        raise ValueError(f"x0 must have {sys_def.dim} components, got {x0.shape[0]}")
    t0 = sys_def.t_train[0] if args.t0 is None else args.t0
    t1 = sys_def.t_train[1] if args.t1 is None else args.t1
    traj = odeint.integrate(sys_def.field, x0, t0, t1, args.h)
    odeint.save_trajectory(traj, args.out)
    print(f"wrote {args.out}: {traj.n_steps + 1} samples, dim {traj.dim}, "
          f"t in [{traj.t0:g}, {traj.t1:g}], h = {traj.h:g}")
    return EXIT_OK


def cmd_solve_grid(args) -> int:
    traj = odeint.load_trajectory(args.data)
    system = lmm.grid_system(lmm.scheme(args.scheme, args.steps), traj.states, traj.h)
    window = system.window
    kappa = discovery.condition_number(system)
    fhat = discovery.solve_grid_values(system)
    sl = slice(window.r, window.q + 1)
    times = traj.times[sl]
    states = traj.states[sl]
    columns = {"x": states, "fhat": fhat}
    true_field = _true_field(args, traj)
    if true_field is not None:
        columns["ftrue"] = systems.field_rows(true_field, states)
    header = ["t"] + [f"{name}{i + 1}" for name in columns for i in range(traj.dim)]
    odeint.write_csv(args.out, header, np.column_stack([times, *columns.values()]))
    kappa_text = (f"kappa2 <= {kappa:.6g} (1-/inf-norm bound)"
                  if window.tau > discovery.DENSE_LIMIT else f"kappa2 = {kappa:.6g}")
    print(f"wrote {args.out}: window [{window.r}, {window.q}], tau = {window.tau}, {kappa_text}")
    if "ftrue" in columns:
        print(f"max grid error vs true field: {np.max(np.abs(fhat - columns['ftrue'])):.6g}")
    return EXIT_OK


def cmd_train(args) -> int:
    traj = odeint.load_trajectory(args.data)
    config = training.TrainConfig(
        family=args.scheme, steps=args.steps, degree=args.k, intervals=args.grid,
        hidden=args.hidden, learning_rate=args.lr, iterations=args.iters,
        seed=args.seed, loss_kind=args.loss,
    )
    net, report = training.train(config, traj, true_field=_true_field(args, traj))
    kan.save_model(net, args.out)
    if args.report:
        odeint.write_json(args.report,
                          {**dataclasses.asdict(report), "loss_trace": report.loss_trace.tolist()})
    print(f"wrote {args.out}: best loss {report.best_loss:.6g} "
          f"at iteration {report.best_iteration}, final loss {report.final_loss:.6g}")
    if report.seminorm_error is not None:
        print(f"field seminorm error: {report.seminorm_error:.6g}")
    return EXIT_OK


def cmd_predict(args) -> int:
    net = kan.load_model(args.model)
    x0 = _parse_vector(args.x0)
    if x0.shape != (net.d_in,):
        raise ValueError(f"x0 must have {net.d_in} components, got {x0.shape[0]}")
    traj = odeint.integrate(kan.field(net), x0, args.t0, args.t1, args.h)
    odeint.save_trajectory(traj, args.out)
    print(f"wrote {args.out}: {traj.n_steps + 1} samples over [{traj.t0:g}, {traj.t1:g}]")
    return EXIT_OK


def cmd_bounds(args) -> int:
    holder = analysis.HolderSpec(alpha=args.alpha, lam=args.lam, radius=args.radius)
    if args.model:  # the model fixes k, G, N, d and L; a flag may only repeat k, G, N or d
        net = kan.load_model(args.model)
        inputs = {"k": net.basis.degree, "grid": net.basis.intervals, "hidden": net.hidden,
                  "d": net.d_in, "lipschitz": analysis.lipschitz_estimate(net)}
        for flag, value in inputs.items():
            given = getattr(args, flag)
            if given is not None and (given != value or flag == "lipschitz"):
                raise ValueError(f"--{flag} {given} conflicts with --model's {flag} = {value:.10g}")
    elif args.d is None:
        raise ValueError("bounds needs --d, or a --model to read it from")
    else:
        inputs = {"k": 3, "grid": 64, "hidden": 2 * args.d + 1, "d": args.d, "lipschitz": 1.0}
        inputs.update({flag: v for flag in inputs if (v := getattr(args, flag)) is not None})
    report = analysis.bounds_report(holder, *inputs.values())
    print("bound report")
    for key, value in report.inputs.items():
        print(f"  {key} = {value}")
    print(f"  upper_bound           = {report.upper_bound:.10g}")
    print(f"  upper_bound_unit_box  = {report.upper_bound_unit_box:.10g}")
    print(f"  vc_lower_bound_shape  = {report.vc_lower_bound_shape:.10g}"
          "   (modulo unknown constant)")
    print(f"  note: {report.notes}")
    if args.out:
        odeint.write_json(args.out, dataclasses.asdict(report))
    return EXIT_OK


def cmd_experiment(args) -> int:
    summary = experiments.run(args.name, args.out_dir, quick=not args.full, seed=args.seed)
    print(f"experiment {args.name} finished; summary written to {args.out_dir}/summary.json")
    for key in ("seminorm_error", "fitted_C", "log_error_slope",
                "linf_error_train_interval"):
        if key in summary:
            print(f"  {key} = {summary[key]:.6g}")
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="kanlmm",
        description="Vector-field discovery from trajectories: spline networks "
                    "trained on linear-multistep residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config; its keys override flags")
        tables[name] = p
        return p

    p = add("gen", cmd_gen, "integrate a benchmark system and write a trajectory CSV")
    p.add_argument("--system", required=True, choices=["linear", "glycolytic", "opinion"])
    p.add_argument("--h", type=float, default=1e-3, help="output grid step")
    p.add_argument("--t0", type=float, default=None, help="start time (default: system)")
    p.add_argument("--t1", type=float, default=None, help="end time (default: system)")
    p.add_argument("--x0", default=None, help="comma-separated initial state override")
    p.add_argument("--dim", type=int, default=50, help="agent count (opinion only)")
    p.add_argument("--alpha", type=float, default=1.0, help="interaction scale (opinion only)")
    p.add_argument("--seed", type=int, default=0, help="initial-condition seed (opinion only)")
    p.add_argument("--out", required=True)

    p = add("solve-grid", cmd_solve_grid, "recover field grid values by one banded triangular solve")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--scheme", default="am", choices=list(lmm.FAMILIES))
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--system", default=None, choices=["linear", "glycolytic", "opinion"],
                   help="known system for a ftrue comparison column")
    p.add_argument("--dim", type=int, default=50, help="agent count (opinion only)")
    p.add_argument("--alpha", type=float, default=1.0, help="interaction scale (opinion only)")
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, "fit a spline network to a trajectory")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--scheme", default="am", choices=list(lmm.FAMILIES))
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--k", type=int, default=3, help="spline degree")
    p.add_argument("--grid", type=int, default=64, help="spline interval count G")
    p.add_argument("--hidden", type=int, default=None, help="hidden width (default 2d+1)")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=2200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", default="jah", choices=list(training.LOSS_KINDS))
    p.add_argument("--system", default=None, choices=["linear", "glycolytic", "opinion"],
                   help="known system for error reporting")
    p.add_argument("--dim", type=int, default=50, help="agent count (opinion only)")
    p.add_argument("--alpha", type=float, default=1.0, help="interaction scale (opinion only)")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--report", default=None, help="training report JSON path")

    p = add("predict", cmd_predict, "integrate a saved model forward in time")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out", required=True)

    p = add("bounds", cmd_bounds, "evaluate the approximation bound calculators")
    p.add_argument("--k", type=int, default=None, help="spline degree (default 3)")
    p.add_argument("--grid", type=int, default=None, help="interval count G (default 64)")
    p.add_argument("--hidden", type=int, default=None, help="hidden width (default 2d+1)")
    p.add_argument("--d", type=int, default=None, help="input dimension (needed without --model)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--lipschitz", type=float, default=None, help="default 1; not with --model")
    p.add_argument("--model", default=None, help="bound this model: its own k, G, N, d and L")
    p.add_argument("--out", default=None, help="also write the report as JSON")

    p = add("experiment", cmd_experiment, "run a benchmark experiment protocol")
    p.add_argument("name", choices=list(experiments.EXPERIMENT_NAMES))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--full", action=argparse.BooleanOptionalAction, default=False,
                   help="full reference scale (slow); default is quick desk scale")
    p.add_argument("--seed", type=int, default=0)

    return parser, tables


def main(argv=None) -> int:
    parser, tables = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags come last, so they win over the command line
            args = parser.parse_args(argv + _config_flags(args.config, tables[args.command]))
        return args.func(args)
    except (kan.ModelFormatError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except training.TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (odeint.IntegrationError, discovery.SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
