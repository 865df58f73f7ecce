"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Heavy Monte-Carlo criteria share session fixtures.  Run with `pytest
tests/test_acceptance.py -s` to see the per-criterion lines.  Criterion 5 is
implemented exactly as stated and is expected to fail; its test docstring and
the companion test explain the quantified reason.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from lqstack.costs import OptimalitySweep, gain_grid_search
from lqstack.equilibrium import (bsde_residual, drift_residuals, reconstruct_adjoints,
                                 solve_equilibrium)
from lqstack.model import model_to_dict
from lqstack.riccati import assemble_leader_blocks, solve_follower_P, solve_leader_riccati
from lqstack.simulate import closed_loop_chunks, density_process, generate_noise, simulate_closed_loop

from conftest import backfill, make_model, random_admissible_model

# Frozen 100000-step reference for the first leader Riccati matrix at t=0 on
# the benchmark model (regenerate with scripts/make_reference.py).
P1_REF = np.array([
    [1.1092263306955832, 0.0],
    [0.0, 0.0],
])


def report(num, ok, detail=""):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def tower_ensemble(eq_b200):
    noise = generate_noise(42, 100000, eq_b200.model.grid)
    return simulate_closed_loop(eq_b200.closed_loop(), noise)


def test_criterion_01_follower_riccati_closed_forms():
    t0 = time.perf_counter()
    rational = make_model(steps=1000, A=0.0, C=0.0, Q1=0.0, G1=1.0)
    err_rational = abs(solve_follower_P(rational).values[0] - 0.5)
    tanh = make_model(steps=1000, A=0.0, C=0.0, Q1=1.0, G1=0.0)
    err_tanh = abs(solve_follower_P(tanh).values[0] - np.tanh(1.0))
    elapsed = time.perf_counter() - t0
    ok = err_rational <= 1e-8 and err_tanh <= 1e-8 and elapsed < 1.0
    assert report(1, ok, f"errs=({err_rational:.2e},{err_tanh:.2e}) runtime={elapsed:.2f}s")


def test_criterion_02_integrator_order():
    def p1_at_zero(steps):
        m = make_model(steps=steps)
        P = solve_follower_P(m)
        return solve_leader_riccati(m, assemble_leader_blocks(m, P)).p1[0]

    e_n = np.max(np.abs(p1_at_zero(200) - P1_REF))
    e_2n = np.max(np.abs(p1_at_zero(400) - P1_REF))
    ratio = e_n / e_2n
    assert report(2, 12.0 <= ratio <= 20.0, f"ratio={ratio:.2f}")


def test_criterion_03_exact_terminal_data(eq_b200):
    m = eq_b200.model
    from lqstack.filtering import solve_follower_filter
    fp = solve_follower_filter(m, eq_b200.P, eq_b200.u2hat_path())
    ok = (np.array_equal(eq_b200.leader.p1[-1], eq_b200.blocks.gbar)
          and np.all(eq_b200.leader.p2[-1] == 0.0)
          and eq_b200.P.values[-1] == m.G1
          and fp.theta_hat.nodes[-1] == 0.0
          and np.array_equal(eq_b200.xhat.nodes[0], np.array([m.x0, 0.0])))
    assert report(3, ok, "bit-exact")


def test_criterion_04_drift_residual_order(eq_b400):
    eq800 = solve_equilibrium(make_model(800))
    d400 = drift_residuals(eq_b400)
    d800 = drift_residuals(eq800)
    rf = d400.follower_max / d800.follower_max
    rl = d400.leader_max / d800.leader_max
    ok = 3.5 <= rf <= 4.5 and 3.5 <= rl <= 4.5
    assert report(4, ok, f"follower ratio={rf:.2f}, leader ratio={rl:.2f}")


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: the ensemble mean of the Euler scheme carries a "
    "systematic first-order weak error vs the 4th-order filter path "
    "(~1.6e-3 at N=200, halving when N doubles), while 3 stderr at M=1e5 is "
    "~7.6e-4 (first component) and ~3e-5 (second component, early "
    "checkpoints); the companion test checks the discrete-model tower "
    "identity, which does hold at 3 stderr"))
def test_criterion_05_tower_property_strict(eq_b200, tower_ensemble):
    """mean(X(t)) vs the filter path at 3 stderr, N=200, M=1e5, as stated."""
    t0 = time.perf_counter()
    ens = tower_ensemble
    n = eq_b200.model.grid.steps
    X = np.stack([ens.x.T, ens.q.T], axis=-1)
    mean = X.mean(axis=0)
    stderr = X.std(axis=0, ddof=1) / np.sqrt(ens.m)
    ok = True
    worst = 0.0
    for frac in np.linspace(0.1, 1.0, 10):
        k = int(round(frac * n))
        gap = np.abs(mean[k] - eq_b200.xhat.nodes[k])
        ok &= bool(np.all(gap <= 3.0 * stderr[k]))
        worst = max(worst, float(np.max(gap - 3.0 * stderr[k])))
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 60.0, f"worst gap beyond 3se={worst:.2e}, runtime={elapsed:.1f}s")
    assert ok and elapsed < 60.0


def test_criterion_05_companion_discrete_tower(eq_b200, tower_ensemble):
    """The ensemble mean matches the discrete Euler mean recursion at 3
    stderr (pure sampling check), and the recursion's gap to the filter path
    halves when the grid is refined: together these isolate the stated
    criterion's failure to the first-order weak error of the scheme."""
    ens = tower_ensemble
    model = eq_b200.model
    n = model.grid.steps
    dt = model.grid.dt
    sys_cl = eq_b200.closed_loop()
    X = np.stack([ens.x.T, ens.q.T], axis=-1)
    mean = X.mean(axis=0)
    stderr = X.std(axis=0, ddof=1) / np.sqrt(ens.m)

    disc = np.empty((n + 1, 2))
    disc[0] = eq_b200.xhat.nodes[0]
    m_k = disc[0].copy()
    for k in range(n):
        m_k = m_k + dt * (sys_cl.drift_x[k] @ m_k + sys_cl.drift_xhat[k] @ eq_b200.xhat.nodes[k])
        disc[k + 1] = m_k
    ok = True
    for frac in np.linspace(0.1, 1.0, 10):
        k = int(round(frac * n))
        ok &= bool(np.all(np.abs(mean[k] - disc[k]) <= 3.0 * stderr[k] + 1e-12))
    assert ok

    def recursion_gap(steps):
        eq = solve_equilibrium(make_model(steps))
        scl = eq.closed_loop()
        m_k = eq.xhat.nodes[0].copy()
        worst = 0.0
        for k in range(steps):
            m_k = m_k + eq.model.grid.dt * (scl.drift_x[k] @ m_k
                                            + scl.drift_xhat[k] @ eq.xhat.nodes[k])
            worst = max(worst, float(np.max(np.abs(m_k - eq.xhat.nodes[k + 1]))))
        return worst

    g200, g400 = recursion_gap(200), recursion_gap(400)
    assert 1.7 < g200 / g400 < 2.4


def test_criterion_06_density_martingale():
    m = make_model(steps=100, h=1.0)
    noise = generate_noise(42, 100000, m.grid)
    zt = density_process(m, noise)
    gap = abs(float(zt.mean()) - 1.0)
    bound = 3.0 * float(zt.std(ddof=1) / np.sqrt(len(zt)))
    assert report(6, gap <= bound, f"|mean-1|={gap:.2e} <= {bound:.2e}")


def test_criterion_07_gain_consistency(eq_b200):
    def two_form_gap(eq):
        model = eq.model
        n = model.grid.steps
        pn = eq.P.values
        B1 = model.nodes("B1")
        C = model.nodes("C")
        D1 = model.nodes("D1")
        D2 = model.nodes("D2")
        si = 1.0 / (D1 * D1 * pn + model.nodes("R1"))
        xh = eq.xhat.nodes
        u1_gain = np.einsum("ki,ki->k", eq.gains.f_nodes, xh)
        theta = np.array([(eq.leader.p1[k] + eq.leader.p2[k])[1] @ xh[k] for k in range(n + 1)])
        u2hat = np.einsum("ki,ki->k", eq.gains.lhat_nodes, xh)
        u1_sub = -si * ((B1 + D1 * C) * pn * xh[:, 0] + B1 * theta + D1 * D2 * pn * u2hat)
        return np.max(np.abs(u1_gain - u1_sub)) / (np.max(np.abs(u1_gain)) + 1e-300)

    worst = two_form_gap(eq_b200)
    rng = np.random.default_rng(2718)
    count = 0
    while count < 10:
        model = random_admissible_model(rng, steps=200)
        try:
            eq = solve_equilibrium(model)
        except Exception:
            continue
        worst = max(worst, two_form_gap(eq))
        count += 1
    assert report(7, worst <= 1e-10, f"worst rel gap={worst:.2e} over benchmark + 10 random models")


@pytest.fixture(scope="module")
def optimality_reports():
    """The J1 and J2 sweeps of criteria 08 and 09, fed from one closed-loop stream.

    Both check the same seed-42 ensemble; each report equals that of its own
    verify_optimality_chunked run.
    """
    # grid fine enough that the O(dt) bias of the frozen-control differencing
    # sits below the Monte-Carlo slope resolution
    steps = 1600
    eq = solve_equilibrium(make_model(steps))
    t = eq.model.grid.times()
    dirs = {"const": np.ones(steps + 1), "ramp": t, "sine": np.sin(2.0 * np.pi * t)}
    sweeps = {which: OptimalitySweep(eq, which, dirs, [0.05, 0.1, 0.2]) for which in ("J1", "J2")}
    for ens in closed_loop_chunks(eq.closed_loop(), 42, 100000):
        for sweep in sweeps.values():
            sweep.add(ens)
        del ens  # else it stays alive while the next chunk is simulated
    return {which: sweep.report() for which, sweep in sweeps.items()}


def _optimality_criterion(num, rep):
    ok = True
    details = []
    for c in rep.curves:
        margin = c.min_delta_margin(3.0)
        slope_ok = abs(c.slope) <= 3.0 * c.slope_stderr
        ok &= margin >= 0.0 and slope_ok and c.curvature >= 0.0
        details.append(f"{c.name}: margin={margin:.1e} slope={c.slope:.1e}"
                       f"(3se={3 * c.slope_stderr:.1e}) curv={c.curvature:.2f}")
    assert report(num, ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_08_follower_optimality(optimality_reports):
    _optimality_criterion(8, optimality_reports["J1"])


@pytest.mark.slow
def test_criterion_09_leader_optimality(optimality_reports):
    _optimality_criterion(9, optimality_reports["J2"])


def test_criterion_10_brute_force_dominance(eq_b200):
    noise = generate_noise(42, 4000, eq_b200.model.grid)
    ens = simulate_closed_loop(eq_b200.closed_loop(), noise)
    res = gain_grid_search(eq_b200, ens, np.linspace(-3, 3, 21), np.linspace(-3, 3, 21))
    margin = res.dominance_margin(2.0)
    ok = margin >= 0.0
    assert report(10, ok, f"equilibrium J1={res.equilibrium_mean:.5f} vs best grid "
                          f"{res.best_mean:.5f} at ({res.best_alpha},{res.best_beta})")


def test_criterion_11_bsde_residual_order():
    def rms(steps):
        eq = solve_equilibrium(make_model(steps))
        noise = generate_noise(42, 10000, eq.model.grid)
        ens = simulate_closed_loop(eq.closed_loop(), noise)
        theta = backfill(eq, ens)
        recon = reconstruct_adjoints(eq, ens, theta)
        return bsde_residual(eq, ens, recon).rms

    ratio = rms(400) / rms(800)
    assert report(11, 1.6 <= ratio <= 2.6, f"rms ratio={ratio:.2f}")


def test_criterion_12_reproducibility(tmp_path):
    model = make_model(steps=80)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    runs = {}
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / tag
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "lqstack", "verify", "--model", str(path),
             "--out", str(out), "--paths", "600", "--seed", "9"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    ok = runs["a"] == runs["b"] == runs["c"]
    assert report(12, ok, "verify CSVs byte-identical across reruns and thread counts")
