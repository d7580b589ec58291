"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion states a claim the regularized star operator satisfies (the
Birman-Schwinger normalization of Exner & Kondej, AHP 3 (2002), documented in
``starspec.discretization``), measured on meshes fine enough to resolve it.
Where a criterion needs a derivation (03 and 05), it is given in the test's
docstring, and the failure message prints the measured numbers against the
asserted bounds.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla
import sympy

import starspec as ss
from starspec.bounds import small_angle_bounds
from starspec.discretization import BlockAssembler
from starspec.geometry import spherical_design_check
from starspec.optimizer import (
    OptSettings,
    kernel_sum_compare,
    optimize,
    verify_sharp_local_max,
)
from starspec.spectral import bound_states, principal_eigenvalue


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}", flush=True)
    return ok


def default_mesh(L):
    """8 panels of order 12, grading 2."""
    return ss.build_mesh(L, 8, 12, 2.0)


def antipodal(L, alpha):
    return ss.make_star(ss.sharp_configuration(2), L, alpha)


def test_01_antipodal_segment_oracle():
    t0 = time.time()
    alpha, L = 0.0, 6.0
    diffs = []
    for panels in (6, 8):  # refinement step ending at the default mesh
        mesh_arm = ss.build_mesh(L, panels, 12, 2.0)
        mesh_seg = ss.build_mesh(2 * L, panels, 12, 2.0)
        e_star = principal_eigenvalue(antipodal(L, alpha), mesh_arm, alpha).ground_energy
        e_seg = principal_eigenvalue(
            ss.make_star([(0, 0, 1)], 2 * L, alpha), mesh_seg, alpha
        ).ground_energy
        diffs.append(abs(e_star - e_seg))
    elapsed = time.time() - t0
    ok = diffs[1] < 1e-5 and diffs[1] < diffs[0] and elapsed < 10.0
    assert report(
        1, ok,
        f"antipodal oracle: |dE|={diffs[1]:.2e} at default mesh, "
        f"{diffs[0]:.2e} one level coarser, {elapsed:.1f}s",
    )


def test_02_scaling_covariance():
    t0 = time.time()
    rels = []
    for n, L in ((2, 6.0), (4, 5.0)):
        dirs = ss.sharp_configuration(n)
        alpha = 0.0
        a_prime = alpha - math.log(2.0) / (2.0 * math.pi)
        e_base = principal_eigenvalue(
            ss.make_star(dirs, L, a_prime), default_mesh(L), a_prime
        ).ground_energy
        e_zoom = principal_eigenvalue(
            ss.make_star(dirs, 2 * L, alpha), default_mesh(2 * L), alpha
        ).ground_energy
        rels.append(abs(e_base - 4.0 * e_zoom) / abs(e_base))
    elapsed = time.time() - t0
    ok = max(rels) < 1e-6 and elapsed < 30.0
    assert report(
        2, ok,
        f"scaling covariance: rel dev N=2: {rels[0]:.2e}, N=4: {rels[1]:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_03_L_monotonicity():
    """Ground energy of the tetrahedral star does not increase with L.

    Extending a trial function of an arm of length L by zero to length L'
    leaves the regularized quadratic form unchanged: the kernel gains
    -f(x) ln((L'-x)/(L-x)) from the longer self-interaction, and
    ln 4x(L-x) gains exactly that back.  So lambda(kappa; L) is
    non-decreasing in L, and E(L) is non-increasing.  The ground state is
    vertex-dominated (size 1/kappa ~ 0.21), so a step from L >= 2 changes E
    by about e^{-2 kappa L} < 1e-8, far below any mesh error: only 1 -> 2
    can show a strict decrease.

    Each E(L) is certified by ``refine_until`` on one ladder rule (40 and 48
    panels, scaled with L): its last rung moved it by at most e_tol, taken
    as its error, so a non-increasing pair may appear to rise by 2 e_tol.
    """
    t0 = time.time()
    e_tol = 5e-5
    lengths = (1.0, 2.0, 4.0, 8.0, 16.0)
    energies, deltas = [], []
    for L in lengths:
        cfg = ss.make_star(ss.sharp_configuration(4), L, 0.0)
        ladder = [ss.build_mesh(L, p, 12, 2.0) for p in (40, 48)]
        res = ss.refine_until(cfg, 0.0, e_tol, ladder)
        energies.append(res.ground_energy)
        deltas.append(float(res.mesh_metadata["ladder_deltas"][-1]))
    elapsed = time.time() - t0
    rises = [
        (lo, hi, b - a)
        for lo, hi, a, b in zip(lengths, lengths[1:], energies, energies[1:])
        if not b <= a + 2 * e_tol
    ]
    drop_12 = energies[0] - energies[1]
    ok = not rises and drop_12 > 2 * e_tol and elapsed < 180.0
    assert report(
        3, ok,
        f"L-monotonicity over {{1,2,4,8,16}}: E={np.round(energies, 7)}, "
        f"ladder deltas [{', '.join(f'{d:.1e}' for d in deltas)}]; steps "
        f"rising above 2 e_tol={2 * e_tol:.0e} (L, L', dE): {rises}; "
        f"E(1)-E(2)={drop_12:.2e}, {elapsed:.0f}s",
    )


def test_04_segment_existence_corollary():
    t0 = time.time()
    # total length 12 exceeds the alpha=0 guarantee 2 pi e^{-psi(1)} ~ 11.19
    n_long = bound_states(antipodal(6.0, 0.0), default_mesh(6.0), 0.0, 0)[0]
    # total length 1 at alpha=1 lies in the provably void region
    n_short = bound_states(
        ss.make_star([(0, 0, 1)], 1.0, 1.0), default_mesh(1.0), 1.0, 0
    )[0]
    elapsed = time.time() - t0
    ok = n_long >= 1 and n_short == 0 and elapsed < 10.0
    assert report(
        4, ok,
        f"segment existence: length 12 -> {n_long} state(s), "
        f"length 1 at alpha=1 -> {n_short}, {elapsed:.1f}s",
    )


def test_05_diagonal_block_bound():
    """Two-sided bound on the top of the regularized diagonal block.

    With K = e^{-kappa r}/r and ||f|| = 1, the quadratic form of one arm is

        4 pi (f, T f) = -1/2 int int (f(t) - f(x))^2 / |x-t| dt dx
                        + int int (e^{-kappa r} - 1)/r f(x) f(t) dt dx
                        + int f(x)^2 ln 4x(L-x) dx.

    Upper: the first term is <= 0; the second is <= 0 because
    (e^{-kappa r} - 1)/r has the Fourier transform
    4 pi (1/(p^2+kappa^2) - 1/p^2) < 0; and ln 4x(L-x) <= 2 ln L.  So
    top <= ln(L)/(2 pi), strictly, since no f attains all three.

    Lower: the constant f = L^{-1/2} zeroes the first term, bounds the
    second below by -kappa L through (1 - e^{-kappa r})/r <= kappa, and
    gives ln 4 + 2 ln L - 2 in the third.  So
    top >= (2 ln L + ln 4 - 2 - kappa L)/(4 pi).
    """
    t0 = time.time()
    violations = []
    for L in (1.0, 4.0, 10.0):
        upper = math.log(L) / (2.0 * math.pi)
        for kappa in (1e-3, 0.1, 1.0, 10.0):
            lower = (
                2.0 * math.log(L) + math.log(4.0) - 2.0 - kappa * L
            ) / (4.0 * math.pi)
            for panels in (8, 16):
                mesh = ss.build_mesh(L, panels, 12, 2.0)
                top = float(sla.eigvalsh(BlockAssembler(mesh).weighted_block(kappa))[-1])
                if not lower <= top < upper:
                    violations.append((L, kappa, panels, lower, top, upper))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 30.0
    assert report(
        5, ok,
        f"diagonal-block bound (2 ln L + ln 4 - 2 - kappa L)/(4 pi) <= top < "
        f"ln(L)/(2 pi) on 24 cells: {len(violations)} violating cells "
        f"(L, kappa, panels, lower, top, upper): {violations}, {elapsed:.0f}s",
    )


def test_06_sharp_configuration_optimality():
    lines = []
    ok = True
    t_small = time.time()
    for n, starts, seed in ((2, 3, 0), (3, 4, 1), (4, 8, 1)):
        res = optimize(n, 5.0, 0.0, OptSettings(starts=starts, seed=seed))
        ok = ok and bool(res.congruent_to_sharp)
        lines.append(f"N={n}:{'ok' if res.congruent_to_sharp else 'MISS'}")
    t_small = time.time() - t_small
    ok = ok and t_small < 600.0

    t6 = time.time()
    res6 = optimize(6, 5.0, 0.0, OptSettings(starts=8, seed=1))
    t6 = time.time() - t6
    ok = ok and bool(res6.congruent_to_sharp) and t6 < 1800.0
    lines.append(f"N=6:{'ok' if res6.congruent_to_sharp else 'MISS'} ({t6:.0f}s)")

    t12 = time.time()
    rep12 = verify_sharp_local_max(12, 3.0, 0.0, scale=0.05, trials=20, seed=3,
                                   mesh=ss.build_mesh(3.0, 12, 8, 2.0))
    t12 = time.time() - t12
    ok = ok and rep12.passed and t12 < 1200.0
    lines.append(f"N=12 local max:{'ok' if rep12.passed else 'MISS'} ({t12:.0f}s)")
    assert report(6, ok, "sharp optimality: " + ", ".join(lines) + f"; N<=4 in {t_small:.0f}s")


def test_07_pointwise_kernel_sum_inequality():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    samples = list(zip(rng.uniform(0.04, 1.0, 25), rng.uniform(0.04, 1.0, 25)))
    worst = np.inf
    for n in (3, 4, 6, 12):
        sharp = ss.sharp_configuration(n)
        for _ in range(100):
            while True:
                dirs = rng.standard_normal((n, 3))
                dirs /= np.linalg.norm(dirs, axis=1)[:, None]
                g = (dirs @ dirs.T)[np.triu_indices(n, 1)]
                if g.max() < 1.0 - 1e-6:
                    break
            for kappa in (0.5, 2.0):
                rep = kernel_sum_compare(dirs, sharp, kappa, samples)
                worst = min(worst, rep.min_gap)
    congruent_worst = 0.0
    rng2 = np.random.default_rng(7)
    for n in (3, 4, 6, 12):
        q, _ = np.linalg.qr(rng2.standard_normal((3, 3)))
        sharp = ss.sharp_configuration(n)
        rep = kernel_sum_compare(sharp @ q.T, sharp, 1.0, samples)
        congruent_worst = max(congruent_worst, abs(rep.min_gap))
    elapsed = time.time() - t0
    ok = worst >= -1e-12 and congruent_worst <= 1e-14 and elapsed < 60.0
    assert report(
        7, ok,
        f"kernel-sum inequality: min gap {worst:.2e}, congruent |gap| "
        f"{congruent_worst:.2e}, {elapsed:.0f}s",
    )


def small_angle_fit(alpha, L, phis, ladder, e_tol):
    """Ground energies of two-arm stars at the angles ``phis``, each
    converged on the mesh ladder, and the exponent p of
    |E_1| ~ (1-cos phi)^{-p} fitted on the angles whose 1-cos phi lies within
    a factor 10 of the smallest; also whether each energy lies below its
    small-angle upper bound."""
    energies = []
    for phi in phis:
        cfg = ss.make_star([(0.0, 0.0, 1.0), (math.sin(phi), 0.0, math.cos(phi))], L, alpha)
        energies.append(ss.refine_until(cfg, alpha, e_tol, ladder).ground_energy)
    gaps = np.array([2.0 * math.sin(0.5 * phi) ** 2 for phi in phis])
    sel = gaps <= 10.0 * gaps.min()
    slope = np.polyfit(np.log(gaps[sel]), np.log(np.abs(energies))[sel], 1)[0]
    upper_ok = all(e <= small_angle_bounds(alpha, L, phi, 1).upper + 1e-12
                   for e, phi in zip(energies, phis))
    return energies, -float(slope), upper_ok


def test_08_small_angle_behavior():
    # the fitted exponent lies in [0.4, 1.1], the window spanned by the two
    # theoretical rates (1-cos phi)^{-1/2} and (1-cos phi)^{-1}, widened by
    # 0.1 on each side; small angles concentrate the state at the vertex,
    # so the ladder is deeply vertex-graded
    t0 = time.time()
    ladder = [ss.build_mesh(1.0, p, 12, 2.0) for p in (24, 32)]
    energies, exponent, upper_ok = small_angle_fit(0.0, 1.0, [0.2, 0.1, 0.05], ladder, 1e-3)
    count = bound_states(
        ss.make_star([(0, 0, 1), (math.sin(0.05), 0, math.cos(0.05))], 1.0, 0.0),
        ladder[-1],
        0.0,
        0,
    )[0]
    elapsed = time.time() - t0
    ok = (
        upper_ok
        and 0.4 <= exponent <= 1.1
        and energies[2] < energies[1] < energies[0] < 0.0
        and count >= 2
        and elapsed < 300.0
    )
    assert report(
        8, ok,
        f"small-angle: exponent p={exponent:.3f}, E<=E+ {upper_ok}, "
        f"{count} states at phi=0.05, E={np.round(energies, 4)}, {elapsed:.0f}s",
    )


def test_09_eigenvector_diagnostics():
    # positivity on the suite's converged runs (moderate kappa, where the
    # eigenvector's dynamic range leaves the tail above the noise floor);
    # arm-symmetry residual on sharp stars; parity for two arms
    t0 = time.time()
    checks = {}
    tetra = principal_eigenvalue(
        ss.make_star(ss.sharp_configuration(4), 5.0, 0.0),
        ss.build_mesh(5.0, 16, 12, 2.0), 0.0,
    )
    checks["tetra positive"] = tetra.ground_vector_positivity
    checks["tetra symmetric"] = tetra.arm_symmetry_residual < 1e-8
    octa = principal_eigenvalue(
        ss.make_star(ss.sharp_configuration(6), 2.0, 0.0),
        ss.build_mesh(2.0, 8, 12, 2.0), 0.0,
    )
    checks["octa symmetric"] = octa.arm_symmetry_residual < 1e-8
    anti = principal_eigenvalue(antipodal(6.0, 0.0), default_mesh(6.0), 0.0)
    checks["antipodal positive"] = anti.ground_vector_positivity
    checks["antipodal parity"] = anti.parity == "symmetric"
    pair = principal_eigenvalue(
        ss.make_star([(0, 0, 1), (1, 0, 0)], 50.0, 0.0), default_mesh(50.0), 0.0
    )
    checks["right-angle positive"] = pair.ground_vector_positivity
    checks["right-angle parity"] = pair.parity == "symmetric"
    elapsed = time.time() - t0
    ok = all(checks.values())
    assert report(
        9, ok,
        f"diagnostics: {checks}, {elapsed:.0f}s",
    )


def test_10_design_checks():
    t0 = time.time()
    octa_ok, _ = spherical_design_check(ss.sharp_configuration(6), 3)
    octa_bad, octa_dev = spherical_design_check(ss.sharp_configuration(6), 4)
    icosa_ok, _ = spherical_design_check(ss.sharp_configuration(12), 5)
    icosa_bad, icosa_dev = spherical_design_check(ss.sharp_configuration(12), 6)
    elapsed = time.time() - t0
    ok = (
        octa_ok and not octa_bad and octa_dev > 1e-10
        and icosa_ok and not icosa_bad and icosa_dev > 1e-10
        and elapsed < 1.0
    )
    assert report(
        10, ok,
        f"designs: octahedron 3-design (order-4 dev {octa_dev:.3f}), "
        f"icosahedron 5-design (order-6 dev {icosa_dev:.3f}), {elapsed:.2f}s",
    )


def test_11_mesh_self_convergence():
    t0 = time.time()
    cfg = ss.make_star(ss.sharp_configuration(4), 5.0, 0.0)
    ladder = [ss.build_mesh(5.0, p, 12, 2.0) for p in (40, 48, 56)]
    res = ss.refine_until(cfg, 0.0, 1e-6, ladder)
    meta = res.mesh_metadata
    elapsed = time.time() - t0
    ok = (
        meta["converged"]
        and abs(meta["ladder_deltas"][-1]) < 1e-6
        and meta["observed_order"] is not None
        and meta["observed_order"] >= 2.0
        and elapsed < 120.0
    )
    assert report(
        11, ok,
        f"self-convergence: E1={res.ground_energy:.9f}, last delta "
        f"{meta['ladder_deltas'][-1]:.2e}, order {meta['observed_order']:.1f}, "
        f"{elapsed:.0f}s",
    )


def test_12_complete_monotonicity():
    t0 = time.time()
    kappa_sym, s_sym, t_sym, x_sym = sympy.symbols("kappa s t x", positive=True)
    rho = sympy.sqrt((s_sym - t_sym) ** 2 + s_sym * t_sym * x_sym)
    expr = sympy.exp(-kappa_sym * rho) / (4 * sympy.pi * rho)
    oracles = []
    for _ in range(5):
        oracles.append(sympy.lambdify((kappa_sym, s_sym, t_sym, x_sym), expr, "numpy"))
        expr = sympy.diff(expr, x_sym)

    grid = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    values = np.array([
        (-1) ** k * fn(kappa, s, t, grid)
        for kappa in (0.5, 1.0, 2.0) for s in (0.5, 1.0, 2.0) for t in (0.5, 1.0, 2.0)
        for k, fn in enumerate(oracles)
    ])
    elapsed = time.time() - t0
    ok = values.size == 675 and bool(np.all(values > 0.0)) and elapsed < 5.0
    assert report(
        12, ok,
        f"complete monotonicity: (-1)^k f^(k) > 0 for orders 0-4 of the exact "
        f"derivatives at 27 (kappa,s,t) triples, smallest {values.min():.2e}, "
        f"{elapsed:.1f}s",
    )
