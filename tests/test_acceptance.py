"""Acceptance gate: one pass/fail line per criterion on the desk-scale suite.

Each test prints ``CRITERION <k>: PASS|FAIL - <summary>`` before asserting, so
the verdict of every criterion is visible even on failure.
"""

import json
import math
import sys

import numpy as np
import pytest

from fklab import cli
from fklab.fkmatrix import (FKProblem, check_duhamel, check_nov_identity,
                            estimate_generalized_fk, estimate_product_formula,
                            product_formula_target, rhs_generator)
from fklab.fkschrodinger import (diamagnetic_check, free_kernel, gauge_check,
                                 kato_kappa, kernel, khasminskii_check,
                                 mehler_kernel, preset_potential,
                                 PotentialConfig)
from fklab.opalg import expm, trotter_product
from fklab.phasespace import (PeriodicGrid, alpha_quantize, alpha_symbol,
                              short_time_family, standard_hamiltonian,
                              trotter_reconstruct)
from fklab.stochint import AlphaScheme, FieldWithDivergence, convert_check_batch
from fklab.streams import RngStream
from fklab.wiener import TestFunction as PathTestFunction
from fklab.wiener import (TimeGrid, estimate_char_functional,
                          estimate_covariance,
                          estimate_white_noise_functional, increment_blocks)

from oracles import (double_min_integral, harmonic_grid_kernel, loglog_slope,
                     standard_symbol_target, taylor_expm, well_kato_oracle)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def verdict(k: int, ok: bool, summary: str) -> None:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {summary}"
    with _CAPTURE.disabled():  # keep the verdict visible under fd capture
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    print(line)
    assert ok, f"criterion {k}: {summary}"


def test_criterion_1_wiener_moments():
    grid = TimeGrid(1.0, 1024)
    idx = [256, 512, 768]
    est = estimate_covariance(grid, 2, 100_000, RngStream(101), idx,
                              workers=2)
    times = np.array(idx) * grid.dt
    nd = len(idx) * 2
    z_mean = np.abs(est.mean[:nd]) / est.stderr[:nd]
    second = est.mean[nd:].reshape(3, 3, 2, 2)
    err = est.stderr[nd:].reshape(3, 3, 2, 2)
    target = (np.minimum.outer(times, times)[:, :, None, None]
              * np.eye(2)[None, None])
    z_cov = np.abs(second - target) / err
    worst = max(z_mean.max(), z_cov.max())
    verdict(1, worst <= 4.0,
            f"means and covariances vs delta_jk min(r,s), worst |z| = {worst:.2f}")


def test_criterion_2_functional_fourier_and_white_noise():
    grid = TimeGrid(1.0, 512)
    c = math.sqrt(2.0)
    f_char = PathTestFunction(lambda s: np.full((len(s), 1), c), 1.0)
    est_char = estimate_char_functional(grid, f_char, 100_000,
                                        RngStream(102), workers=2)
    target_char = math.exp(-0.5 * c * c * double_min_integral(1.0))
    assert abs(target_char - math.exp(-1 / 3)) < 1e-6
    z1 = abs(est_char.mean - target_char) / est_char.stderr

    f_white = PathTestFunction(lambda s: np.ones((len(s), 1)), 1.0)
    est_white = estimate_white_noise_functional(grid, f_white, 100_000,
                                                RngStream(102), workers=2)
    z2 = abs(est_white.mean - math.exp(-0.5)) / est_white.stderr
    verdict(2, max(z1, z2) <= 3.0,
            f"exp(-1/3) and exp(-1/2) identities, |z| = {z1:.2f}, {z2:.2f}")


def test_criterion_3_conversion_slope():
    field = FieldWithDivergence(lambda x, s: x,
                                lambda x, s: np.full(x.shape[:-1], 1.0))
    steps = [64, 128, 256, 512, 1024]
    slopes = {}
    exact_half = True
    for alpha in (0.0, 1.0):
        ms = []
        for n in steps:
            grid = TimeGrid(1.0, n)
            dw = increment_blocks(grid, 1, 4000, RngStream(103).generator())
            r = convert_check_batch(grid, dw, field, AlphaScheme(alpha))
            ms.append(float((r**2).mean()))
        slopes[alpha] = loglog_slope(steps, ms)
    grid = TimeGrid(1.0, 256)
    dw = increment_blocks(grid, 1, 4000, RngStream(103).generator())
    exact_half = bool(np.all(
        convert_check_batch(grid, dw, field, AlphaScheme(0.5)) == 0.0))
    ok = exact_half and all(abs(s + 1.0) <= 0.3 for s in slopes.values())
    verdict(3, ok, "mean-square residual slopes "
            f"{slopes[0.0]:.2f}, {slopes[1.0]:.2f} (target -1 +/- 0.3), "
            f"alpha=1/2 exactly zero: {exact_half}")


PAULI_CASES = (((SX,), Z2), ((SX,), SZ), ((SX, SY), Z2))


def test_criterion_4_generalized_fk():
    worst = 0.0
    ok = True
    for t in (0.5, 1.0):
        for A, B in PAULI_CASES:
            prob = FKProblem(A, B, t, TimeGrid(t, 512))
            est = estimate_generalized_fk(prob, 100_000, RngStream(104),
                                          workers=2)
            frob = np.linalg.norm(est.mean - rhs_generator(prob))
            tol = max(3 * np.linalg.norm(est.stderr), 1e-2)
            worst = max(worst, frob / tol)
            ok = ok and frob <= tol
    verdict(4, ok, "Pauli cases vs expm(-t(sum A^2/2 + B)), "
            f"worst error/tolerance = {worst:.2f}")


def test_criterion_5_nov_and_duhamel():
    worst = 0.0
    for A, B in PAULI_CASES:
        if np.any(B != 0):
            continue
        prob = FKProblem(A, B, 1.0, TimeGrid(1.0, 512))
        est = check_nov_identity(prob, 100_000, RngStream(105),
                                 chunk_size=4096, workers=2)
        err = np.asarray(est.stderr)
        z = np.where(err > 0, np.abs(est.mean) / np.where(err > 0, err, 1.0),
                     np.abs(np.asarray(est.mean)) * 1e12)
        worst = max(worst, float(z.max()))
    for A, B in PAULI_CASES:
        prob = FKProblem(A, B, 1.0, TimeGrid(1.0, 512))
        res, err = check_duhamel(prob, 100_000, 12, RngStream(105),
                                 chunk_size=4096, workers=2)
        z = np.where(err > 0, np.abs(res) / np.where(err > 0, err, 1.0),
                     np.abs(res) * 1e12)
        worst = max(worst, float(z.max()))
    verdict(5, worst <= 4.0,
            f"Nov identity and Duhamel residuals, worst entrywise |z| = {worst:.2f}")


def test_criterion_6_product_corollary():
    Ap = np.array([[0, 1], [0, 0]], dtype=complex)
    Am = Ap.conj().T.copy()
    target = product_formula_target(Ap, Am, Z2, 1.0)
    assert np.allclose(target, math.exp(-1.0) * np.eye(2), atol=1e-12)
    est = estimate_product_formula(Ap, Am, Z2, TimeGrid(1.0, 256), 100_000,
                                   RngStream(106), workers=2)
    frob = np.linalg.norm(est.mean - target)
    tol = max(3 * np.linalg.norm(est.stderr), 1e-2)
    verdict(6, frob <= tol,
            f"ladder case vs exp(-1) identity, error {frob:.2e} <= {tol:.2e}")


def test_criterion_7_semigroup_and_kernel():
    # free kernel: exact with zero variance
    free = preset_potential("free", d=2)
    est_free = kernel(free, [0.0, 0.0], [0.4, -0.2], 400, TimeGrid(0.7, 32),
                      RngStream(107))
    free_ok = (est_free.stderr == 0.0 and abs(
        est_free.mean - free_kernel(2, np.array([0.4, -0.2]), 0.7)) < 1e-14)

    # harmonic kernel at the origin vs the grid-eigendecomposition oracle
    pot = preset_potential("harmonic")
    est_h = kernel(pot, [0.0], [0.0], 40_000, TimeGrid(1.0, 128),
                   RngStream(108), workers=2)
    oracle = harmonic_grid_kernel(0.0, 0.0, 1.0)
    assert abs(oracle - (2 * math.pi * math.sinh(1.0)) ** -0.5) < 1e-4
    h_err = abs(est_h.mean - oracle)
    h_tol = max(3 * est_h.stderr, 0.02 * oracle)
    harm_ok = h_err <= h_tol

    # Chapman-Kolmogorov: int dy K(0,y;1/2) K(y,0;1/2) = K(0,0;1)
    ys = np.linspace(-4.0, 4.0, 33)
    dy = ys[1] - ys[0]
    vals = np.empty(len(ys))
    errs = np.empty(len(ys))
    for i, y in enumerate(ys):
        e = kernel(pot, [0.0], [y], 8000, TimeGrid(0.5, 64),
                   RngStream(109, i))
        vals[i] = e.mean.real
        errs[i] = e.stderr
    w = np.full(len(ys), dy)
    w[0] = w[-1] = dy / 2
    # K(y,0) = K(0,y) by time reversal; integrand is the square
    ck = float(np.sum(w * vals**2))
    ck_err = float(np.sqrt(np.sum((w * 2 * np.abs(vals) * errs) ** 2)))
    ck_ok = abs(ck - oracle) <= 3 * ck_err + 3 * est_h.stderr + 1e-3
    verdict(7, free_ok and harm_ok and ck_ok,
            f"free exact: {free_ok}; harmonic {h_err:.2e} <= {h_tol:.2e}; "
            f"Chapman-Kolmogorov {ck:.5f} vs {oracle:.5f} +/- {ck_err:.1e}")


def test_criterion_8_gauge_and_diamagnetic():
    # linear gauge: residual is zero pathwise
    lin = preset_potential("gauge-linear", d=1, c=0.8)
    est_lin = gauge_check(lin, [0.0], [0.5], 400, TimeGrid(1.0, 64),
                          RngStream(110))
    lin_ok = abs(est_lin.mean) < 1e-13

    # sine gauge at q = q' = 0: the weak bias averages out, z-test applies
    amp, k = 0.3, 0.5
    sine = PotentialConfig(
        d=1,
        chi=lambda x: amp * np.sin(k * np.sum(x, axis=-1)),
        grad_chi=lambda x: amp * k * np.cos(k * x))
    est_sine = gauge_check(sine, [0.0], [0.0], 20_000, TimeGrid(0.25, 256),
                           RngStream(111), workers=2)
    z_sine = abs(est_sine.mean) / est_sine.stderr

    # the per-path mean residual decays O(dt) under refinement
    biases = []
    for n in (32, 128, 512):
        e = gauge_check(sine, [0.0], [0.4], 40_000, TimeGrid(1.0, n),
                        RngStream(112), workers=2)
        biases.append(abs(e.mean))
    decay_ok = biases[2] < biases[1] < biases[0] and biases[2] < 0.3 * biases[0]

    # diamagnetic inequality at 20 random probes
    gen = RngStream(113).generator()
    pot = preset_potential("constant-magnetic-2d", b0=1.5)

    def psi(x):
        return np.exp(-np.sum(x**2, axis=-1) / 2)

    dia_ok = True
    for i in range(20):
        q = 2.0 * gen.standard_normal(2)
        t = float(gen.uniform(0.2, 1.2))
        with_a, without_a = diamagnetic_check(pot, psi, q, 4000,
                                              TimeGrid(t, 48),
                                              RngStream(114, i))
        gap = abs(with_a.mean) - without_a.mean.real
        dia_ok &= gap <= 3 * (with_a.stderr + without_a.stderr) + 1e-12
    ok = lin_ok and z_sine <= 4.0 and decay_ok and dia_ok
    verdict(8, ok, f"linear gauge exact: {lin_ok}; sine |z| = {z_sine:.2f}; "
            f"O(dt) bias decay: {decay_ok}; diamagnetic at 20 probes: {dia_ok}")


def test_criterion_9_kato_khasminskii():
    # constant potential: kappa = c t to quadrature accuracy
    c, t = 0.7, 0.8
    kappa_const = kato_kappa(lambda x: np.full(x.shape[:-1], c), t,
                             np.zeros((1, 1)), box_halfwidth=np.inf)
    const_ok = abs(kappa_const - c * t) <= 1e-4

    # Khas'minskii bound on a sweep of well strengths
    khas_ok = True
    for height in (0.1, 0.3, 0.6):
        pot = preset_potential("constant-well", height=height, halfwidth=1.0)
        lhs, bound = khasminskii_check(pot, [0.0], 20_000,
                                       TimeGrid(1.0, 64), RngStream(115),
                                       workers=2)
        khas_ok &= lhs.mean.real - bound <= 3 * lhs.stderr
    # cross-check kappa for the well against the dense CDF quadrature
    well = preset_potential("constant-well", height=0.4, halfwidth=1.0)
    probes = np.linspace(-2, 2, 17)[:, None]
    kw = kato_kappa(well.eval_v_minus, 0.5, probes,
                    box_halfwidth=well.box_halfwidth)
    well_ok = abs(kw - well_kato_oracle(0.4, 1.0, 0.5)) <= 2e-3

    # kappa_t -> 0 as t -> 0 with a positive decay slope
    ts = [2.0**-k for k in range(1, 7)]
    ks = [kato_kappa(well.eval_v_minus, tt, probes,
                     box_halfwidth=well.box_halfwidth) for tt in ts]
    slope = loglog_slope(ts, ks)
    decay_ok = slope > 0 and ks[-1] < ks[0]
    ok = const_ok and khas_ok and well_ok and decay_ok
    verdict(9, ok, f"kappa(const) err {abs(kappa_const - c * t):.1e}; "
            f"bound sweep: {khas_ok}; well oracle: {well_ok}; "
            f"decay slope {slope:.2f} > 0")


def test_criterion_10_phasespace():
    grid = PeriodicGrid(32, 12.0)
    gen = RngStream(116).generator()
    H_rand = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
    rt = max(
        float(np.abs(alpha_quantize(alpha_symbol(H_rand, grid, a)) - H_rand).max())
        for a in (0.0, 0.25, 0.5, 0.75, 1.0))
    rt_ok = rt <= 1e-10

    def a_field(L):
        def b4(x):
            return x**4 - 2 * x**3 + x**2 - 1 / 30
        a = lambda q: 30.0 * b4(np.mod(q / L + 0.5, 1.0))
        da = lambda q: 30.0 * (4 * np.mod(q / L + 0.5, 1.0)**3
                               - 6 * np.mod(q / L + 0.5, 1.0)**2
                               + 2 * np.mod(q / L + 0.5, 1.0)) / L
        v = lambda q: 15.0 * b4(np.mod(q / L + 0.75, 1.0))
        return a, da, v

    # reality of the Weyl symbol of a Hermitian operator
    a, da, v = a_field(12.0)
    H = standard_hamiltonian(grid, a, v)
    reality = float(np.abs(alpha_symbol(H, grid, 0.5).values.imag).max())
    # H is Hermitian but not band-limited; check on the physical window
    window = np.abs(grid.p) <= 4.0
    reality_win = float(
        np.abs(alpha_symbol(H, grid, 0.5).values[window].imag).max())
    Hsmooth = standard_hamiltonian(
        grid, None, lambda q: np.cos(2 * math.pi * q / 12.0))
    reality_smooth = float(
        np.abs(alpha_symbol(Hsmooth, grid, 0.5).values.imag).max())
    reality_ok = reality_smooth <= 1e-10 and reality_win <= 0.05

    # standard-symbol grid order >= 1.7 at alpha in {0, 1}
    order_ok = True
    orders = []
    for alpha in (0.0, 1.0):
        errs = []
        for n in (32, 64, 128):
            g = PeriodicGrid(n, 12.0)
            af, daf, vf = a_field(12.0)
            Hn = standard_hamiltonian(g, af, vf)
            sym = alpha_symbol(Hn, g, alpha)
            tgt = standard_symbol_target(g, af, daf, vf, alpha)
            win = np.abs(g.p) <= 4.0
            errs.append(np.abs(sym.values[win] - tgt.values[win]).max())
        order = -loglog_slope([32, 64, 128], errs)
        orders.append(order)
        order_ok &= order >= 1.7

    # Trotter reconstruction: slope -1 +/- 0.3, common limit for all alpha
    target = expm(-0.5 * H)
    trotter_ok = True
    slopes = []
    for alpha in (0.0, 0.5, 1.0):
        pairs = trotter_reconstruct(H, grid, alpha, 0.5,
                                    [16, 32, 64, 128, 256, 512], workers=2)
        # fit the asymptotic tail; small n sit in a pre-asymptotic plateau
        slope = loglog_slope([n for n, _ in pairs][-3:],
                             [e for _, e in pairs][-3:])
        slopes.append(slope)
        trotter_ok &= -1.3 <= slope <= -0.7
        gaps = [np.linalg.norm(
            trotter_product(short_time_family(H, grid, alpha), 0.5, n) - target)
            for n in (64, 256, 1024)]
        trotter_ok &= gaps[2] < gaps[1] < gaps[0]
        trotter_ok &= gaps[2] <= 0.01 * np.linalg.norm(target)
    ok = rt_ok and reality_ok and order_ok and trotter_ok
    verdict(10, ok, f"roundtrip {rt:.1e}; Weyl reality (band-limited) "
            f"{reality_smooth:.1e}; symbol orders {orders[0]:.2f}/{orders[1]:.2f}; "
            f"Trotter slopes {', '.join(f'{s:.2f}' for s in slopes)}")


REDUCED_CONFIGS = {
    "wiener-stats": {
        "experiment": "wiener-stats", "seed": 21, "n_paths": 4000,
        "grid": {"t_end": 1.0, "n_steps": 32}, "params": {"d": 2}},
    "stochint-convergence": {
        "experiment": "stochint-convergence", "seed": 22, "n_paths": 2000,
        "grid": {"t_end": 1.0, "n_steps": 128}, "params": {"alpha": 0.0}},
    "fk-matrix": {
        "experiment": "fk-matrix", "seed": 23, "n_paths": 4000,
        "grid": {"t_end": 1.0, "n_steps": 64},
        "params": {"A": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}},
    "fk-product": {
        "experiment": "fk-product", "seed": 24, "n_paths": 4000,
        "grid": {"t_end": 1.0, "n_steps": 64},
        "params": {"Aplus": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                   "Aminus": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}},
    "fk-semigroup": {
        "experiment": "fk-semigroup", "seed": 25, "n_paths": 8000,
        "grid": {"t_end": 0.5, "n_steps": 64},
        "params": {"potential": {"name": "harmonic"},
                   "psi": {"name": "harmonic-ground"}, "q": [0.2]}},
    "fk-kernel": {
        "experiment": "fk-kernel", "seed": 26, "n_paths": 8000,
        "grid": {"t_end": 1.0, "n_steps": 64},
        "params": {"potential": {"name": "harmonic"}, "rel_tol": 0.05}},
    "gauge": {
        "experiment": "gauge", "seed": 27, "n_paths": 2000,
        "grid": {"t_end": 1.0, "n_steps": 64},
        "params": {"potential": {"name": "gauge-linear", "c": 0.7},
                   "chi": {"name": "linear", "c": 0.7}}},
    "kato": {
        "experiment": "kato", "seed": 28,
        "grid": {"t_end": 0.5, "n_steps": 1},
        "params": {"potential": {"name": "constant-well"},
                   "n_probes": 9, "n_space": 48, "n_time": 24}},
    "khasminskii": {
        "experiment": "khasminskii", "seed": 29, "n_paths": 8000,
        "grid": {"t_end": 1.0, "n_steps": 64},
        "params": {"potential": {"name": "constant-well"}}},
    "diamagnetic": {
        "experiment": "diamagnetic", "seed": 30, "n_paths": 8000,
        "grid": {"t_end": 1.0, "n_steps": 48},
        "params": {"potential": {"name": "constant-magnetic-2d"},
                   "psi": {"name": "gaussian"}}},
    "phasespace-roundtrip": {
        "experiment": "phasespace-roundtrip", "seed": 31,
        "params": {"n_points": 32, "length": 12.0}},
    "trotter": {
        "experiment": "trotter", "seed": 32,
        "params": {"n_points": 32, "length": 12.0, "n": 64}},
}


def test_criterion_11_determinism(tmp_path, capfd):
    ok = True
    failures = []
    for name, doc in REDUCED_CONFIGS.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for run, workers in (("r1", "1"), ("r2", "1"), ("r3", "3")):
            outdir = tmp_path / run
            outdir.mkdir(exist_ok=True)
            code = cli.main(["run", str(cfg), "--out", str(outdir),
                             "--workers", workers])
            if code != 0:
                failures.append(f"{name}: exit {code}")
                ok = False
            outs.append((outdir / f"{name}.csv").read_bytes())
        if outs[0] != outs[1]:
            failures.append(f"{name}: seed rerun differs")
            ok = False
        if outs[0] != outs[2]:
            failures.append(f"{name}: worker count changes output")
            ok = False
    capfd.readouterr()
    verdict(11, ok, "12 experiments, seed rerun and 3-worker rerun "
            "bit-identical" + (f"; failures: {failures}" if failures else ""))
