import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy

import starspec
from starspec import kernels
from starspec.errors import DomainError, GridTooCoarse, ZeroDistance
from starspec.kernels import (
    PSI_ONE,
    PairKernelParams,
    arm_distance,
    complete_monotonicity_probe,
    green_kernel,
    offdiag_norm_bound,
    pair_kernel,
    point_eigenvalue,
)

FOUR_PI = 4.0 * math.pi


class TestGreenKernel:
    def test_zero_kappa(self):
        assert green_kernel(0.0, 1.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-15)

    def test_unit_values(self):
        assert green_kernel(1.0, 1.0) == pytest.approx(math.exp(-1) / FOUR_PI, rel=1e-15)

    def test_zero_distance(self):
        with pytest.raises(ZeroDistance):
            green_kernel(2.0, 0.0)

    def test_closed_form_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            kappa = rng.uniform(0, 5)
            r = rng.uniform(0.01, 10)
            val = green_kernel(kappa, r) * FOUR_PI * r * math.exp(kappa * r)
            assert abs(val - 1.0) < 1e-14


class TestArmDistance:
    def test_antipodal(self):
        assert arm_distance(1.0, 1.0, 4.0) == pytest.approx(2.0, abs=1e-15)

    def test_vertex_point(self):
        assert arm_distance(0.0, 5.0, 1.7) == pytest.approx(5.0, abs=1e-15)

    def test_orthogonal(self):
        assert arm_distance(1.0, 1.0, 2.0) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_two_algebraic_forms_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s, t = rng.uniform(0, 3, 2)
            x = rng.uniform(0, 4)
            d2 = arm_distance(s, t, x) ** 2
            alt = s * s + t * t - s * t * (2.0 - x)
            assert abs(d2 - alt) <= 1e-13 * max(1.0, abs(alt))


class TestPairKernel:
    def test_antipodal_value(self):
        p = PairKernelParams(kappa=1.0, s=1.0, t=1.0)
        assert pair_kernel(p, 4.0) == pytest.approx(math.exp(-2) / (8 * math.pi), rel=1e-14)

    def test_chord_zero_limit(self):
        p = PairKernelParams(kappa=0.0, s=2.0, t=1.0)
        assert pair_kernel(p, 1e-300) == pytest.approx(1.0 / FOUR_PI, rel=1e-12)

    def test_direct_evaluation(self):
        p = PairKernelParams(kappa=1.0, s=1.0, t=1.0)
        expected = math.exp(-math.sqrt(2)) / (FOUR_PI * math.sqrt(2))
        assert pair_kernel(p, 2.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.013680, abs=1e-6)

    def test_decreasing_in_chord(self):
        p = PairKernelParams(kappa=0.7, s=1.3, t=0.8)
        xs = np.linspace(0.1, 4.0, 40)
        vals = [pair_kernel(p, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_singular_at_origin(self):
        with pytest.raises(ZeroDistance):
            pair_kernel(PairKernelParams(kappa=1.0, s=1.0, t=1.0), 0.0)


class TestPointEigenvalue:
    def test_exact_minus_four(self):
        assert point_eigenvalue(PSI_ONE / (2 * math.pi)) == pytest.approx(-4.0, rel=1e-14)

    def test_alpha_zero(self):
        assert point_eigenvalue(0.0) == pytest.approx(-4 * math.exp(2 * PSI_ONE), rel=1e-14)
        assert point_eigenvalue(0.0) == pytest.approx(-1.2609470067487736, rel=1e-12)

    def test_monotone_increasing(self):
        alphas = np.linspace(-2, 2, 30)
        vals = [point_eigenvalue(a) for a in alphas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 0 for v in vals)

    def test_weak_coupling_limit(self):
        assert -1e-10 < point_eigenvalue(10.0) < 0.0


def _tau_oracle(phi: float) -> float:
    """Independent quadrature of tau(phi): substitution theta = t^2 from both
    endpoints of the folded integral."""
    from scipy.integrate import quad

    cphi = math.cos(phi)

    def g(theta):
        s2 = math.sin(2 * theta)
        return 1.0 / math.sqrt(s2 * (1.0 - cphi * s2))

    f1 = lambda t: 2 * t * g(t * t)
    f2 = lambda t: 2 * t * g(math.pi / 2 - t * t)
    half = math.sqrt(math.pi / 4)
    v1, _ = quad(f1, 0, half, epsabs=0, epsrel=1e-12, limit=300)
    v2, _ = quad(f2, 0, half, epsabs=0, epsrel=1e-12, limit=300)
    return math.sqrt(2) / FOUR_PI * (v1 + v2)


def _tau_per_angle(phi: float) -> float:
    """tau(phi) by the rule of ``offdiag_norm_bound``, one angle at a time in
    Python floats: the per-pair evaluation that the array pass replaced."""
    x, w = kernels._GAUSS_32

    def gauss(f, b, panels):
        h = 0.5 * b / panels
        mid = h * (2.0 * np.arange(panels) + 1.0)
        return h * float(np.sum(f(mid[:, None] + h * x) * w))

    h = 2.0 * math.sin(0.5 * phi) ** 2
    t_max = math.asinh(0.25 * math.pi / phi)
    peak = gauss(lambda t: kernels._tau_peak(t, phi, h), t_max, math.ceil(t_max / 4.0))
    tail = gauss(lambda v: kernels._tau_tail(v, h), math.sqrt(0.25 * math.pi), 1)
    return math.sqrt(2.0) / (4.0 * math.pi) * (peak + tail)


class TestOffdiagNormBound:
    def test_array_matches_per_angle_loop(self):
        # one to seven panels of the peak rule, in shuffled order
        rng = np.random.default_rng(0)
        phis = rng.permutation(np.concatenate([np.geomspace(1e-12, math.pi, 500),
                                               rng.uniform(1e-3, math.pi, 500)]))
        taus = offdiag_norm_bound(phis)
        ref = np.array([_tau_per_angle(p) for p in phis])
        assert taus.shape == phis.shape
        assert np.all(np.abs(taus - ref) <= 1e-15 * ref)
        assert [offdiag_norm_bound(p) for p in phis[:20]] == taus[:20].tolist()
        assert offdiag_norm_bound(phis.reshape(10, 100)).shape == (10, 100)
        assert offdiag_norm_bound(np.array([])).shape == (0,)

    def test_value_at_pi(self):
        # I_pi = pi/sqrt(2) in closed form, so tau(pi) = 1/4 exactly
        assert offdiag_norm_bound(math.pi) == pytest.approx(0.25, rel=1e-9)

    @pytest.mark.parametrize("phi", [2.0, 1.0, 0.3, 0.05])
    def test_against_independent_quadrature(self, phi):
        assert offdiag_norm_bound(phi) == pytest.approx(_tau_oracle(phi), rel=1e-8)

    def test_strictly_decreasing(self):
        phis = np.linspace(1e-3, math.pi, 50)
        vals = [offdiag_norm_bound(p) for p in phis]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            offdiag_norm_bound(0.0)
        with pytest.raises(DomainError):
            offdiag_norm_bound(3.5)
        with pytest.raises(DomainError):
            offdiag_norm_bound(np.array([1.0, math.nan]))

    def test_smallest_angles(self):
        # make_star admits arms 1e-9 rad apart; there
        # tau(phi) = ln(1/phi)/(2 pi) + 0.330953..., without cancellation or warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            taus = {phi: offdiag_norm_bound(phi) for phi in (1e-3, 1e-4, 1e-5, 1e-9)}
        assert taus[1e-9] - taus[1e-5] == pytest.approx(math.log(1e4) / (2 * math.pi), abs=1e-6)
        for phi in (1e-3, 1e-4, 1e-5):
            const = taus[phi] - math.log(1 / phi) / (2 * math.pi)
            assert const == pytest.approx(0.330953, abs=1e-6)

    def test_small_angle_log_slope(self):
        # growth per unit of |ln(1-cos phi)| stays below the asserted
        # sqrt(2)/(4 pi) coefficient; the actual limit slope is 1/(4 pi)
        phis = [1e-2, 1e-3, 1e-4]
        taus = [offdiag_norm_bound(p) for p in phis]
        logs = [abs(math.log(1 - math.cos(p))) for p in phis]
        slope = (taus[2] - taus[1]) / (logs[2] - logs[1])
        assert slope <= math.sqrt(2) / FOUR_PI + 1e-4
        assert slope == pytest.approx(1.0 / FOUR_PI, rel=5e-2)


def test_cli_import_leaves_out_quadrature():
    # scipy.integrate and scipy.sparse are slow to import; no job loads the
    # first, and only ARPACK solves (above 1,000 rows) load the second
    src = str(Path(starspec.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys, starspec.cli as cli\n"
        "job = cli.parse_job(json.dumps({'command': 'spectrum', 'star': {'sharp': 4},\n"
        "                                'alpha': 0.0, 'arm_length': 5.0}))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(job) == 0\n"
        "print([m for m in ('scipy.sparse', 'scipy.sparse.linalg', 'scipy.integrate')\n"
        "       if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def symbolic_pair_kernel_derivatives(max_order: int):
    kappa, s, t, x = sympy.symbols("kappa s t x", positive=True)
    rho = sympy.sqrt((s - t) ** 2 + s * t * x)
    expr = sympy.exp(-kappa * rho) / (4 * sympy.pi * rho)
    funcs = []
    for _ in range(max_order + 1):
        funcs.append(sympy.lambdify((kappa, s, t, x), expr, "numpy"))
        expr = sympy.diff(expr, x)
    return funcs


class TestCompleteMonotonicity:
    def test_matches_symbolic_oracle(self):
        p = PairKernelParams(kappa=1.0, s=1.0, t=1.0)
        grid = [0.5, 1.0, 2.0, 3.0, 4.0]
        rep = complete_monotonicity_probe(p, 4, grid)
        assert rep.all_pass
        # sign agreement at every order and point; magnitudes agree tightly
        # at low order and loosely at high order (finite differences)
        rtols = [1e-12, 5e-2,.15, .3, .6]  # central differences lose accuracy per order
        for k, fn in enumerate(symbolic_pair_kernel_derivatives(4)):
            exact = np.array([fn(1.0, 1.0, 1.0, x) for x in grid])
            est = rep.derivatives[k]
            assert np.all(np.sign(est) == np.sign(exact)), f"order {k} signs"
            assert np.allclose(est, exact, rtol=rtols[k]), f"order {k} magnitude"

    def test_order0_positive_order1_negative(self):
        p = PairKernelParams(kappa=0.5, s=2.0, t=1.0)
        rep = complete_monotonicity_probe(p, 1, [0.5, 1.5, 3.0])
        assert np.all(rep.derivatives[0] > 0)
        assert np.all(rep.derivatives[1] < 0)

    def test_alternating_signs(self):
        p = PairKernelParams(kappa=2.0, s=0.5, t=1.5)
        rep = complete_monotonicity_probe(p, 4, [0.5, 1.0, 2.0, 3.0, 4.0])
        assert rep.orders_pass == (True,) * 5

    def test_grid_too_coarse(self):
        p = PairKernelParams(kappa=1.0, s=1.0, t=1.0)
        with pytest.raises(GridTooCoarse):
            complete_monotonicity_probe(p, 6, [1.0, 1.0 + 4e-4])

    def test_max_order_limit(self):
        p = PairKernelParams(kappa=1.0, s=1.0, t=1.0)
        with pytest.raises(DomainError):
            complete_monotonicity_probe(p, 7, [1.0, 2.0])
