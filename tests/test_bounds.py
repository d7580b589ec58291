import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings, strategies as st

import starspec as ss
from starspec import bounds
from starspec.bounds import (
    PSI_ONE,
    energy_lower_bound,
    nonexistence_threshold,
    offdiag_norm_bound,
    pair_bound,
    point_eigenvalue,
    segment_existence_length,
    small_angle_bounds,
)
from starspec.errors import DegenerateAngle, DomainError
from starspec.discretization import BlockAssembler
from starspec.geometry import StarConfig
from starspec.spectral import bound_states

FOUR_PI = 4.0 * math.pi


class TestSegmentExistenceLength:
    def test_alpha_zero(self):
        # 2 pi e^{-psi(1)} = 11.19070...
        assert segment_existence_length(0.0) == pytest.approx(11.190808, abs=1e-5)

    def test_exponent_vanishes(self):
        assert segment_existence_length(PSI_ONE / (2 * math.pi)) == pytest.approx(
            2 * math.pi, rel=1e-14
        )

    def test_increasing(self):
        alphas = np.linspace(-1, 1, 20)
        vals = [segment_existence_length(a) for a in alphas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


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
    x, w = bounds._GAUSS_32

    def gauss(f, b, panels):
        h = 0.5 * b / panels
        mid = h * (2.0 * np.arange(panels) + 1.0)
        return h * float(np.sum(f(mid[:, None] + h * x) * w))

    h = 2.0 * math.sin(0.5 * phi) ** 2
    t_max = math.asinh(0.25 * math.pi / phi)
    peak = gauss(lambda t: bounds._tau_peak(t, phi, h), t_max, math.ceil(t_max / 4.0))
    tail = gauss(lambda v: bounds._tau_tail(v, h), math.sqrt(0.25 * math.pi), 1)
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
    src = str(Path(ss.__file__).resolve().parents[1])
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


class TestNonexistenceThreshold:
    def test_single_arm_L4(self):
        cfg = ss.make_star([(0, 0, 1)], 4.0, 0.0)
        assert nonexistence_threshold(cfg) == pytest.approx(math.log(4.0) / (2 * math.pi),
                                                            rel=1e-15)

    def test_antipodal_value(self):
        # P = [[0, tau(pi)], [tau(pi), 0]] has top tau(pi) = 1/4
        cfg = ss.make_star(ss.sharp_configuration(2), 4.0, 0.0)
        want = math.log(4.0) / (2 * math.pi) + offdiag_norm_bound(math.pi)
        got = nonexistence_threshold(cfg)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.4706, abs=1e-4)

    def test_diverges_for_closing_angle(self):
        # tau(phi) = ln(1/phi)/(2 pi) + const + o(1): each decade adds ln(10)/(2 pi)
        vals = []
        for phi in (1e-5, 1e-6, 1e-7):
            dirs = [(0, 0, 1.0), (math.sin(phi), 0, math.cos(phi))]
            vals.append(nonexistence_threshold(ss.make_star(dirs, 1.0, 0.0)))
        assert vals[0] == pytest.approx(2.1633, abs=1e-4)
        for a, b in zip(vals, vals[1:]):
            assert b - a == pytest.approx(math.log(10.0) / (2 * math.pi), abs=1e-9)

    def test_degenerate_angle(self):
        dirs = np.array([[0, 0, 1.0], [0, 0, 1.0]])
        cfg = StarConfig(directions=dirs, arm_length=1.0, coupling=0.0)
        with pytest.raises(DegenerateAngle):
            nonexistence_threshold(cfg)

    def test_consistent_with_no_bound_states(self):
        cfg = ss.make_star(
            [(0, 0, 1), (math.sin(2.0), 0, math.cos(2.0))], 1.0, 0.0
        )
        alpha = nonexistence_threshold(cfg)
        assert bound_states(cfg, ss.build_mesh(1.0, 8, 12, 2.0), alpha, 0)[0] == 0

    def test_existence_at_1p1_times_guarantee(self):
        # a segment 10% longer than the guarantee has a bound state
        total = 1.1 * segment_existence_length(0.0)
        cfg = ss.make_star([(0, 0, 1)], total, 0.0)
        assert bound_states(cfg, ss.build_mesh(total, 8, 12, 2.0), 0.0, 0)[0] >= 1


def constant_trial_coupling(config) -> float:
    """alpha_lo = [2 ln L + ln 4 - 2 + (4/N) sum_{i<j} ln(1 + 2/|d_i - d_j|)]/(4 pi).

    The constant trial function f = (NL)^{-1/2} on every arm has |f| = 1.
    Levels are counted at kappa = 0, where the kernel is 1/(4 pi r).  The
    diagonal part is the constant-function bound of acceptance criterion 05
    at kappa = 0, shared by the N arms: 4 pi (f, T_0 f) summed over the arms
    is at least 2 ln L + ln 4 - 2.  Arms i and j are r = L sqrt((s-t)^2 +
    s t c) apart at arc lengths Ls and Lt, with c = |d_i - d_j|^2, and

        int int_{[0,1]^2} ds dt / sqrt((s-t)^2 + s t c) = 2 ln(1 + 2/sqrt(c)),

    so each of the N(N-1) ordered pairs adds 2 ln(1 + 2/|d_i - d_j|)/N.
    Hence lambda_1(0) >= alpha_lo: a coupling below alpha_lo leaves at least
    one eigenvalue above it at kappa = 0, so at least one bound state.
    """
    n, L, d = config.n_arms, config.arm_length, config.directions
    i, j = np.triu_indices(n, k=1)
    pairs = np.log1p(2.0 / np.linalg.norm(d[i] - d[j], axis=1)).sum()
    return (2 * math.log(L) + math.log(4.0) - 2.0 + 4.0 / n * pairs) / (4 * math.pi)


def random_directions(n: int, seed: int) -> np.ndarray:
    d = np.random.default_rng(seed).standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


BRACKET_STARS = {
    **{f"sharp{n}": ss.sharp_configuration(n) for n in (2, 3, 4, 6, 12)},
    "one arm": np.array([[0.0, 0.0, 1.0]]),
    **{f"random{n}": random_directions(n, n) for n in (2, 3, 4, 6, 12)},
}


class TestThresholdBracket:
    """The discrete spectrum is empty at the nonexistence threshold and not
    empty just below the constant-trial coupling ``constant_trial_coupling``."""

    @pytest.mark.parametrize("c", [4.0, 1.0, 0.1])
    def test_pair_integral(self, c):
        from scipy.integrate import dblquad

        val, _ = dblquad(lambda t, s: 1.0 / math.sqrt((s - t) ** 2 + s * t * c),
                         0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-10)
        assert val == pytest.approx(2.0 * math.log1p(2.0 / math.sqrt(c)), rel=1e-8)

    def check(self, dirs, L):
        config = ss.make_star(dirs, L, 0.0)
        upper = nonexistence_threshold(config)
        lower = constant_trial_coupling(config)
        assert lower < upper
        for panels in (8, 16):
            mesh = ss.build_mesh(L, panels, 12, 2.0)
            assert bound_states(config, mesh, upper, 0)[0] == 0
            assert bound_states(config, mesh, lower - 1e-9, 0)[0] >= 1

    @pytest.mark.parametrize("L", [0.5, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("star", sorted(BRACKET_STARS))
    def test_stars(self, star, L):
        self.check(BRACKET_STARS[star], L)

    @pytest.mark.parametrize("phi", [0.02, 0.1, 0.5, 1.5, 2.5, math.pi])
    def test_two_arms(self, phi):
        self.check([(0, 0, 1.0), (math.sin(phi), 0, math.cos(phi))], 1.0)


class TestEnergyLowerBound:
    """E_1 >= point_eigenvalue(alpha - lambda_max(P)) for every star."""

    def test_one_arm_is_the_line(self):
        cfg = ss.make_star([(0, 0, 1)], 3.0, 0.4)
        assert pair_bound(cfg) == 0.0
        assert energy_lower_bound(cfg) == point_eigenvalue(0.4)

    def test_antipodal_value(self):
        # P = [[0, tau(pi)], [tau(pi), 0]] has top tau(pi) = 1/4
        cfg = ss.make_star(ss.sharp_configuration(2), 1.0, 0.0)
        assert energy_lower_bound(cfg) == pytest.approx(point_eigenvalue(-0.25), rel=1e-13)
        assert energy_lower_bound(cfg) == pytest.approx(-29.1792, abs=1e-4)

    def test_shares_the_threshold_pair_bound(self):
        cfg = ss.make_star(random_directions(6, 3), 2.5, -0.3)
        top = pair_bound(cfg)
        assert nonexistence_threshold(cfg) == math.log(2.5) / (2 * math.pi) + top
        assert energy_lower_bound(cfg) == point_eigenvalue(-0.3 - top)

    def test_independent_of_arm_length(self):
        dirs = random_directions(4, 4)
        vals = {energy_lower_bound(ss.make_star(dirs, L, 0.1)) for L in (0.5, 1.0, 7.0)}
        assert len(vals) == 1

    def test_overflow(self):
        # point_eigenvalue(alpha - 1/4) overflows below alpha ~ -56
        with pytest.raises(DomainError):
            energy_lower_bound(ss.make_star(ss.sharp_configuration(2), 1.0, -57.0))

    @pytest.mark.parametrize("L", [0.1, 1.0, 5.0])
    def test_diagonal_top_below_line_bound(self, L):
        # the proof's line bound, on the computed diagonal block where the
        # mesh resolves the decay (kappa L <= 50)
        for kappa in (1e-3, 0.1, 1.0, 10.0):
            if kappa * L > 50:
                continue
            line = (PSI_ONE - math.log(kappa / 2)) / (2 * math.pi)
            mesh = ss.build_mesh(L, 16, 12, 2.0)
            top = float(sla.eigvalsh(BlockAssembler(mesh).weighted_block(kappa))[-1])
            assert top < line

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
                 min_size=1, max_size=4),
        st.floats(-0.25, 0.5),
        st.floats(0.5, 5.0),
    )
    @example([(0.0, 0.0), (0.02, 0.0)], 0.0, 1.0)
    @example([(0.0, 0.0), (0.02, 0.0), (0.02, 0.5 * math.pi)], 0.0, 5.0)
    def test_computed_ground_energy_is_above(self, angles, alpha, L):
        dirs = np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
                         for t, p in angles])
        cosines = (dirs @ dirs.T)[np.triu_indices(len(dirs), k=1)]
        assume(np.all(np.arccos(np.clip(cosines, -1.0, 1.0)) >= 0.02))
        cfg = ss.make_star(dirs, L, alpha)
        _, res = bound_states(cfg, ss.build_mesh(L, 16, 12, 2.0), alpha)
        assume(res is not None)
        assert res.ground_energy >= energy_lower_bound(cfg)


class TestSmallAngleBounds:
    def test_upper_bound_value(self):
        b = small_angle_bounds(0.0, 1.0, 0.1, 1)
        gap = 1.0 - math.cos(0.1)
        want = -2 * math.sqrt(2) * math.exp(2 * PSI_ONE) / math.sqrt(gap) + math.pi**2
        assert b.upper == pytest.approx(want, rel=1e-13)
        assert b.upper == pytest.approx(-2.744, abs=2e-3)

    def test_lower_bound_formula(self):
        b = small_angle_bounds(0.2, 2.0, 0.05, 3)
        tau = offdiag_norm_bound(0.05)
        want = -4 * math.exp(2 * (-2 * math.pi * 0.2 + 2 * math.pi * tau + PSI_ONE))
        assert b.lower == pytest.approx(want, rel=1e-13)
        # the energy bound of the two-arm star at that angle
        star = ss.make_star([(0, 0, 1.0), (math.sin(0.05), 0, math.cos(0.05))], 2.0, 0.2)
        assert b.lower == pytest.approx(energy_lower_bound(star), rel=1e-12)
        assert small_angle_bounds(0.0, 1.0, 0.1, 1).lower == pytest.approx(-8111.03, abs=0.01)

    def test_level_shift(self):
        # the level shift applies to the upper side only
        b1 = small_angle_bounds(0.0, 2.0, 0.1, 1)
        b3 = small_angle_bounds(0.0, 2.0, 0.1, 3)
        shift = (math.pi / 2.0) ** 2 * (9 - 1)
        assert b3.upper - b1.upper == pytest.approx(shift, rel=1e-12)
        assert b3.lower == b1.lower

    def test_divergence_rates(self):
        # the upper side diverges at exactly the (1-cos phi)^{-1/2} rate; the
        # lower side at the (1-cos phi)^{-1} rate, with lower (1-cos phi) ->
        # -128 e^{2 psi(1) - 4 pi alpha} at relative distance O(phi^2)
        shift = math.pi**2
        up = []
        for phi in (1e-2, 1e-3):
            b = small_angle_bounds(0.0, 1.0, phi, 1)
            up.append((b.upper - shift) * math.sqrt(2.0 * math.sin(phi / 2) ** 2))
        assert up[0] == pytest.approx(up[1], rel=1e-12)
        for alpha in (-0.5, 0.0, 1.0):
            limit = -128 * math.exp(2 * PSI_ONE - 4 * math.pi * alpha)
            for phi in (1e-2, 1e-3, 1e-4):
                gap = 2.0 * math.sin(phi / 2) ** 2
                lower = small_angle_bounds(alpha, 1.0, phi, 1).lower
                assert lower * gap == pytest.approx(limit, rel=2 * phi**2)

    def test_gap_times_tau_exponential(self):
        # the proof's (1 - cos phi) e^{4 pi tau} >= pi^2/2; its infimum is the
        # phi -> 0 limit 32, and lower <= upper needs only e^{2 psi(1)}/(2 pi^2)
        phis = np.geomspace(1e-8, math.pi, 200)
        vals = np.array([2.0 * math.sin(p / 2) ** 2 * math.exp(4 * math.pi * offdiag_norm_bound(p))
                         for p in phis])
        assert np.all(vals >= math.pi**2 / 2)
        assert vals.min() == pytest.approx(32.0, rel=1e-6)
        assert math.exp(2 * PSI_ONE) <= 2 * math.pi**2 * vals.min()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(-3.0, 3.0, math.pi, 1)
    @example(3.0, -3.0, 2e-6, 50)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(1e-6, math.pi, exclude_min=True),
        st.integers(1, 50),
    )
    def test_lower_is_below_upper(self, alpha, log_L, phi, k):
        b = small_angle_bounds(alpha, 10.0**log_L, phi, k)
        assert b.lower <= b.upper

    @pytest.mark.parametrize("k", [0, -1])
    def test_level_below_one(self, k):
        with pytest.raises(DomainError):
            small_angle_bounds(0.0, 1.0, 0.1, k)

    def test_huge_level_or_tiny_angle(self):
        # pi k overflows a float; so does the lower side below phi ~ 1e-153
        with pytest.raises(DomainError):
            small_angle_bounds(0.0, 1.0, 0.1, 10**400)
        with pytest.raises(DomainError):
            small_angle_bounds(0.0, 1.0, 1e-200, 1)

    @pytest.mark.parametrize("phi", [1e-6, 1e-9])
    def test_tiny_angle_keeps_its_digits(self, phi):
        # 1 - cos phi keeps 2e-4 of its digits at 1e-6 and rounds to 0 at
        # 1e-9; 2 sin^2(phi/2) keeps all, so the upper side has its phi^-1
        # rate: (upper - (pi k/L)^2) phi -> -4 e^{2 psi(1) - 2 pi alpha} / L
        b = small_angle_bounds(0.5, 2.0, phi, 1)
        limit = -4.0 * math.exp(2 * PSI_ONE - math.pi) / 2.0
        assert (b.upper - (math.pi / 2.0) ** 2) * phi == pytest.approx(limit, rel=1e-13)
        assert math.isfinite(b.lower) and b.lower <= b.upper
