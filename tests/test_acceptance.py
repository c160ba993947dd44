"""Acceptance suite: eleven binding criteria, one verdict line each.

Each test prints (and logs for the terminal summary) a line of the form

    ACCEPTANCE  n PASS: <measured values>

and then asserts the criterion, so a failed criterion still reports its
measured numbers.  Criterion 7 trains from the affine start (every edge
a random line) with inner Adam steps scaled to the outer grid, which
keeps the trapezoid rule's invisible alternating error mode out of the
network; its windowed RMS field error then sits well under 1e-3.

Criterion 8 fits a line to the log of the gap between the learned and
the true trajectory at T = 1 .. 10.  From T = 2 on, the learned state is
outside the model's input box: at T = 2 it is (10.6, 0.18), against
x1 in [-0.18, 3.87].  Outside the box the splines extend as constants,
so those gaps track ||x_true(T)||_inf, the true solution's own growth
(within 0.3% from T = 5 on).  Only the T = 1 gap reflects the model's
accuracy, so a more accurate model lowers the correlation: with the
other nine gaps held fixed it falls to about 0.9 at a T = 1 gap of 4e-7,
against 4.6e-4 today.
"""
import time

import numpy as np
import pytest

from kanlmm import analysis, discovery, kan, lmm, odeint, systems, training
from kanlmm.analysis import HolderSpec
from kanlmm.bspline import eval_basis, make_basis


def record(log, number, ok, limit_s, wall_s, detail):
    ok = ok and wall_s < limit_s
    line = (f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail} "
            f"[{wall_s:.1f}s / limit {limit_s:.0f}s]")
    log.append(line)
    print(line)
    assert ok, line


def linear_trajectory(h: float) -> odeint.Trajectory:
    sysd = systems.linear_system()
    n = round(1.0 / h)
    ts = np.arange(n + 1) * h
    return odeint.Trajectory(t0=0.0, t1=n * h, h=h, states=sysd.solution(ts))


def test_criterion_01_bspline_basis(acceptance_log):
    t0 = time.perf_counter()
    worst_pu, worst_poly = 0.0, 0.0
    dense = np.linspace(0.0, 1.0, 1501)
    fit_x = np.linspace(0.0, 1.0, 200)
    for k in range(1, 6):
        for g in (1, 4, 16, 64):
            basis = make_basis(k, g)
            vals = eval_basis(basis, dense)
            worst_pu = max(worst_pu, float(np.max(np.abs(vals.sum(axis=1) - 1.0))))
            design = eval_basis(basis, fit_x)
            for power in range(k + 1):
                coeffs, *_ = np.linalg.lstsq(design, fit_x ** power, rcond=None)
                err = float(np.max(np.abs(vals @ coeffs - dense ** power)))
                worst_poly = max(worst_poly, err)
    ok = worst_pu <= 1e-12 and worst_poly <= 1e-9
    record(acceptance_log, 1, ok, 5.0, time.perf_counter() - t0,
           f"partition of unity {worst_pu:.2e} (tol 1e-12), "
           f"polynomial reproduction {worst_poly:.2e} (tol 1e-9), "
           f"k in 1..5, G in {{1,4,16,64}}")


def test_criterion_02_gradient_oracle(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for instance in range(20):
        rng = np.random.default_rng(1000 + instance)
        d_in = int(rng.integers(1, 4))
        net = kan.init_network(
            d_in, int(rng.integers(1, 4)), hidden=int(rng.integers(1, 5)),
            degree=int(rng.integers(2, 5)), intervals=int(rng.integers(2, 6)),
            seed=int(rng.integers(1 << 31)))
        x = rng.uniform(-0.2, 1.2, size=(5, d_in))
        upstream = rng.standard_normal((5, net.d_out))
        grad = kan.gradient(net, x, upstream)
        params = kan.get_params(net)
        eps = 1e-6
        fd = np.empty_like(grad)
        for i in range(params.size):
            p_up, p_dn = params.copy(), params.copy()
            p_up[i] += eps
            p_dn[i] -= eps
            kan.set_params(net, p_up)
            f_up = float(np.sum(upstream * kan.forward(net, x)))
            kan.set_params(net, p_dn)
            f_dn = float(np.sum(upstream * kan.forward(net, x)))
            fd[i] = (f_up - f_dn) / (2 * eps)
        rel = float(np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))))
        worst = max(worst, rel)
    record(acceptance_log, 2, worst <= 1e-6, 10.0, time.perf_counter() - t0,
           f"worst relative gradient gap {worst:.2e} over 20 instances (tol 1e-6)")


# step lists for the truncation-slope fits, keyed by scheme order: small
# orders need small h; high orders need h large enough that truncation
# stays above the (1/h)-amplified rounding noise
ORDER_FIT_STEPS = {
    1: [1e-3, 1 / 640, 1 / 400, 1 / 250, 1 / 160, 1e-2],
    2: [1e-3, 1 / 640, 1 / 400, 1 / 250, 1 / 160, 1e-2],
    3: [1 / 320, 1 / 224, 1 / 160, 1 / 112, 1 / 80, 1 / 56],
    4: [1 / 320, 1 / 224, 1 / 160, 1 / 112, 1 / 80, 1 / 56],
    5: [1 / 320, 1 / 224, 1 / 160, 1 / 112, 1 / 80],
    6: [1 / 160, 1 / 112, 1 / 80, 1 / 56],
    7: [1 / 160, 1 / 112, 1 / 80, 1 / 56],
}


def test_criterion_03_scheme_orders(acceptance_log):
    t0 = time.perf_counter()
    sysd = systems.linear_system()
    worst_gap, worst_name = 0.0, ""
    for family in lmm.FAMILIES:
        for steps in range(1, lmm.MAX_STEPS + 1):
            sch = lmm.scheme(family, steps)
            slope = lmm.empirical_order(sch, sysd.field, sysd.solution,
                                        ORDER_FIT_STEPS[sch.order])
            gap = abs(slope - sch.order)
            if gap > worst_gap:
                worst_gap, worst_name = gap, f"{family}-{steps}"
    record(acceptance_log, 3, worst_gap <= 0.3, 30.0, time.perf_counter() - t0,
           f"all 18 schemes within +-0.3 of nominal order; "
           f"worst |slope - p| = {worst_gap:.3f} ({worst_name})")


def test_criterion_04_grid_discovery_convergence(acceptance_log):
    t0 = time.perf_counter()
    sch = lmm.scheme("am", 1)
    sysd = systems.linear_system()
    hs = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for h in hs:
        traj = linear_trajectory(h)
        system = lmm.grid_system(sch, traj.states, traj.h)
        w, u = system.window, discovery.solve_grid_values(system)
        ts = np.arange(w.r, w.q + 1) * h
        f_true = np.apply_along_axis(sysd.field, 1, sysd.solution(ts))
        errs.append(float(np.max(np.abs(u - f_true))))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    record(acceptance_log, 4, slope >= 1.7, 5.0, time.perf_counter() - t0,
           f"grid-value error slope {slope:.3f} over h in {hs} (need >= 1.7)")


def test_criterion_05_conditioning(acceptance_log):
    t0 = time.perf_counter()
    details, ok = [], True
    for family, steps in (("bdf", 1), ("ab", 2)):
        sch = lmm.scheme(family, steps)
        kappas = []
        for n1 in (50, 100, 200, 400):
            traj = linear_trajectory(1.0 / n1)
            system = lmm.grid_system(sch, traj.states, traj.h)
            kappas.append(discovery.condition_number(system))
        spread = max(kappas) / min(kappas)
        ok = ok and spread < 2.0 and all(k >= 1.0 - 1e-12 for k in kappas)
        details.append(f"{family}-{steps}: kappa2 in [{min(kappas):.4g}, "
                       f"{max(kappas):.4g}], spread {spread:.3f}x")
    record(acceptance_log, 5, ok, 30.0, time.perf_counter() - t0,
           "; ".join(details) + " (need spread < 2x, kappa2 >= 1)")


def test_criterion_06_root_condition(acceptance_log):
    t0 = time.perf_counter()
    ab2 = lmm.root_condition(lmm.scheme("ab", 2))
    am1 = lmm.root_condition(lmm.scheme("am", 1))
    bdf1 = lmm.root_condition(lmm.scheme("bdf", 1))
    ab2_ok = (ab2.roots.shape == (1,)
              and abs(ab2.roots[0] - (1.0 / 3.0)) <= 1e-10
              and ab2.satisfied and not ab2.boundary)
    am1_ok = (am1.roots.shape == (1,)
              and abs(am1.roots[0] - (-1.0)) <= 1e-10
              and am1.boundary and not am1.satisfied)
    bdf1_ok = bdf1.roots.size == 0 and bdf1.satisfied and not bdf1.boundary
    ok = ab2_ok and am1_ok and bdf1_ok
    record(acceptance_log, 6, ok, 1.0, time.perf_counter() - t0,
           f"AB-2 root {complex(ab2.roots[0]):.12g} (want 1/3, stable), "
           f"AM-1 root {complex(am1.roots[0]):.12g} flagged boundary, "
           f"BDF-1 vacuous")


@pytest.fixture(scope="session")
def trained_linear_model():
    """Full-scale end-to-end run shared by criteria 7 and 8."""
    sysd = systems.linear_system()
    traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 1.0, 1e-3)
    config = training.TrainConfig(
        family="am", steps=1, degree=3, intervals=64, hidden=16,
        learning_rate=0.1, iterations=2200, beta2=0.99, seed=0, loss_kind="jah",
    )
    t0 = time.perf_counter()
    net, report = training.train(config, traj, true_field=sysd.field)
    wall = time.perf_counter() - t0
    return net, report, sysd, wall


def test_criterion_07_end_to_end_linear(acceptance_log, trained_linear_model):
    net, report, sysd, wall = trained_linear_model
    initial, delivered = float(report.loss_trace[0]), report.best_loss
    seminorm = report.seminorm_error
    ok = seminorm <= 1e-3 and delivered < initial / 10.0
    record(acceptance_log, 7, ok, 300.0, wall,
           f"field seminorm error {seminorm:.3e} (need <= 1e-3), "
           f"loss {initial:.3e} -> {delivered:.3e} (need < initial/10)")


def test_criterion_08_gronwall_growth(acceptance_log, trained_linear_model):
    net, _, sysd, _ = trained_linear_model
    t0 = time.perf_counter()
    table = analysis.gronwall_study(kan.field(net), sysd.field, sysd.x0, list(range(1, 11)))
    slope, corr = analysis.fit_log_linear([t for t, _ in table],
                                          [e for _, e in table])
    ok = slope > 0.0 and corr >= 0.9
    record(acceptance_log, 8, ok, 120.0, time.perf_counter() - t0,
           f"log L-inf error slope {slope:.3f} per unit T (need > 0), "
           f"correlation {corr:.4f} (need >= 0.9)")


def test_criterion_09_bound_calculators(acceptance_log):
    t0 = time.perf_counter()
    holder = HolderSpec(alpha=1.0)
    mono_ok = True
    for k in range(1, 6):
        vals = [analysis.upper_bound(holder, k, g, 5, 3, 1.0)
                for g in (1, 2, 4, 8, 16, 64, 256)]
        mono_ok = mono_ok and all(a >= b for a, b in zip(vals, vals[1:]))
    base = analysis.upper_bound(holder, 3, 16, 1, 4, 0.5)
    linear_ok = all(
        abs(analysis.upper_bound(holder, 3, 16, n, 4, 0.5) - n * base) <= 1e-12 * n * base
        for n in (2, 5, 30))
    ds = [5, 10, 20, 50, 100]
    shapes = [analysis.vc_lower_bound_shape(3, 64, 2 * d + 1, d, 1.0) for d in ds]
    vc_ok = (all(0.0 < v < 1.0 for v in shapes)
             and all(a < b for a, b in zip(shapes, shapes[1:])))
    ok = mono_ok and linear_ok and vc_ok
    record(acceptance_log, 9, ok, 1.0, time.perf_counter() - t0,
           f"upper bound non-increasing in G: {mono_ok}, linear in N: {linear_ok}; "
           f"vc shape rises {shapes[0]:.3f} -> {shapes[-1]:.3f} toward 1 over d={ds}")


def test_criterion_10_benchmark_fidelity(acceptance_log):
    t0 = time.perf_counter()
    params_ok = systems.GLYCOLYTIC_PARAMS == {
        "J0": 2.5, "k1": 100.0, "k2": 6.0, "k3": 16.0, "k4": 100.0,
        "k5": 1.28, "k6": 12.0, "k7": 1.8, "kappa": 13.0, "q": 4.0,
        "K1": 0.52, "psi": 0.1, "N": 1.0, "A": 4.0,
    } and systems.GLYCOLYTIC_X0 == (1.125, 0.95, 0.075, 0.16, 0.265, 0.7, 0.092)
    gly = systems.glycolytic_system()
    gly_traj = odeint.integrate(gly.field, gly.x0, 0.0, 10.0, 1e-3)
    min_state = float(gly_traj.states.min())

    opinion = systems.opinion_system(dim=50, seed=22)
    consensus_ok = bool(np.all(opinion.field(np.full(50, 4.2)) == 0.0))
    traj = odeint.integrate(opinion.field, opinion.x0, 0.0, 5.0, 0.05)
    counts = [systems.opinion_component_count(s) for s in traj.states]
    counts_ok = all(a >= b for a, b in zip(counts, counts[1:]))
    ok = params_ok and min_state > 0.0 and consensus_ok and counts_ok
    record(acceptance_log, 10, ok, 60.0, time.perf_counter() - t0,
           f"glycolytic constants byte-match: {params_ok}, "
           f"min state on [0,10] {min_state:.4f} > 0; opinion consensus field 0: "
           f"{consensus_ok}, components {counts[0]} -> {counts[-1]} non-increasing "
           f"(d=50, seed 22): {counts_ok}")


def test_criterion_11_reproducibility(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    sysd = systems.linear_system()

    csv_texts, model_texts, traces = [], [], []
    for _ in range(2):
        traj = odeint.integrate(sysd.field, sysd.x0, 0.0, 1.0, 0.02)
        path = tmp_path / "traj.csv"
        odeint.save_trajectory(traj, path)
        csv_texts.append(path.read_bytes())
        config = training.TrainConfig(family="am", steps=1, degree=3, intervals=4,
                                      hidden=2, learning_rate=0.05, iterations=30,
                                      seed=9)
        net, report = training.train(config, traj)
        model_texts.append(kan.serialize(net))
        traces.append(report.loss_trace)
    csv_ok = csv_texts[0] == csv_texts[1]
    model_ok = model_texts[0] == model_texts[1]
    trace_ok = bool(np.array_equal(traces[0], traces[1]))
    ok = csv_ok and model_ok and trace_ok
    record(acceptance_log, 11, ok, 60.0, time.perf_counter() - t0,
           f"same config + seed: trajectory bytes identical: {csv_ok}, "
           f"model document identical: {model_ok}, loss trace identical: {trace_ok}")
