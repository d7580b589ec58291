import math

import numpy as np
import pytest

import starspec as ss
from starspec.bounds import (
    check_small_angle_scaling,
    nonexistence_threshold,
    scaled_coupling,
    segment_existence_length,
    small_angle_bounds,
)
from starspec.errors import DegenerateAngle
from starspec.geometry import StarConfig
from starspec.kernels import PSI_ONE, offdiag_norm_bound


class TestScaledCoupling:
    def test_identity(self):
        assert scaled_coupling(0.37, 1.0) == 0.37

    def test_log_cancels(self):
        assert scaled_coupling(2.0, math.exp(2 * math.pi)) == pytest.approx(1.0, abs=1e-14)

    def test_value(self):
        assert scaled_coupling(0.0, 2.0) == pytest.approx(-math.log(2) / (2 * math.pi), rel=1e-14)
        assert scaled_coupling(0.0, 2.0) == pytest.approx(-0.110318, abs=1e-6)


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
        assert ss.count_bound_states(cfg, ss.default_mesh(1.0), alpha) == 0

    def test_existence_at_1p1_times_guarantee(self):
        # a segment 10% longer than the guarantee has a bound state
        total = 1.1 * segment_existence_length(0.0)
        cfg = ss.make_star([(0, 0, 1)], total, 0.0)
        assert ss.count_bound_states(cfg, ss.default_mesh(total), 0.0) >= 1


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
            assert ss.count_bound_states(config, mesh, upper) == 0
            assert ss.count_bound_states(config, mesh, lower - 1e-9) >= 1

    @pytest.mark.parametrize("L", [0.5, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("star", sorted(BRACKET_STARS))
    def test_stars(self, star, L):
        self.check(BRACKET_STARS[star], L)

    @pytest.mark.parametrize("phi", [0.02, 0.1, 0.5, 1.5, 2.5, math.pi])
    def test_two_arms(self, phi):
        self.check([(0, 0, 1.0), (math.sin(phi), 0, math.cos(phi))], 1.0)


class TestSmallAngleBounds:
    def test_upper_bound_value(self):
        b = small_angle_bounds(0.0, 1.0, 0.1, 1, C=1.0)
        gap = 1.0 - math.cos(0.1)
        want = -2 * math.sqrt(2) * math.exp(2 * PSI_ONE) / math.sqrt(gap) + math.pi**2
        assert b.upper == pytest.approx(want, rel=1e-13)
        assert b.upper == pytest.approx(-2.744, abs=2e-3)

    def test_lower_bound_formula(self):
        b = small_angle_bounds(0.2, 2.0, 0.05, 3, C=0.7)
        gap = 1.0 - math.cos(0.05)
        want = -4 * math.exp(
            2 * (-2 * math.pi * 0.7 - 2 * math.pi * 0.2 + PSI_ONE)
        ) / gap + (3 * math.pi / 2.0) ** 2
        assert b.lower == pytest.approx(want, rel=1e-13)

    def test_level_shift(self):
        b1 = small_angle_bounds(0.0, 2.0, 0.1, 1, C=1.0)
        b3 = small_angle_bounds(0.0, 2.0, 0.1, 3, C=1.0)
        shift = (math.pi / 2.0) ** 2 * (9 - 1)
        assert b3.upper - b1.upper == pytest.approx(shift, rel=1e-12)
        assert b3.lower - b1.lower == pytest.approx(shift, rel=1e-12)

    def test_divergence_rates(self):
        # after removing the level shift, the bounds diverge at exactly the
        # (1-cos phi)^{-1/2} and (1-cos phi)^{-1} rates
        shift = math.pi**2
        up, lo = [], []
        for phi in (1e-2, 1e-3):
            b = small_angle_bounds(0.0, 1.0, phi, 1, C=1.0)
            gap = 1.0 - math.cos(phi)
            up.append((b.upper - shift) * math.sqrt(gap))
            lo.append((b.lower - shift) * gap)
        assert up[0] == pytest.approx(up[1], rel=1e-12)
        assert lo[0] == pytest.approx(lo[1], rel=1e-12)


class TestSmallAngleScaling:
    def test_report_structure(self):
        ladder = [ss.build_mesh(1.0, p, 10, 2.0) for p in (16, 24)]
        rep = check_small_angle_scaling(
            0.0, 1.0, [0.2, 0.1], mesh_ladder=ladder, e_tol=0.5
        )
        assert rep.phi_grid == (0.2, 0.1)
        assert len(rep.energies) == 2
        assert rep.energies[1] < rep.energies[0] < 0.0
        assert rep.upper_ok
        assert rep.fit_points == 2
        assert 0.4 <= rep.exponent <= 1.1
        assert rep.passes
