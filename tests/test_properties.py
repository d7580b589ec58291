"""Exact invariants of the discretized Birman-Schwinger operator.

The top eigenvalue lambda(kappa) of one star on one mesh must be unchanged
by a rotation of the whole star and by a relabelling of its arms, and so
must its arm-regularity (which selects the sector solve); it must be
covariant under length scaling:

    lambda(zeta L, kappa / zeta) = lambda(L, kappa) + ln(zeta) / (2 pi).

Scaling multiplies every distance by zeta and divides kappa by zeta, so the
kernel samples e^{-kappa rho} / rho and the quadrature weights scale as
1/zeta and zeta and the plain entries are unchanged; only the self-panel
regularizer f(x) ln(4 (x-a)(b-x)) / (4 pi) gains ln(zeta^2) / (4 pi).  The
correction layout depends on the ratios of distances to panel widths only,
so it holds for every zeta, not only powers of two.

The nonexistence threshold obeys the same laws exactly: it depends on the
arms through their pairwise angles only, and scaling them by zeta adds
ln(zeta) / (2 pi).
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from starspec.bounds import nonexistence_threshold
from starspec.discretization import StarAssembler, build_mesh
from starspec.geometry import make_star, sharp_configuration

TOL = 1e-12


@st.composite
def stars(draw):
    """N unit directions, N in {2, 3, 4, 12}, every pair at least 0.1 rad apart."""
    n = draw(st.sampled_from([2, 3, 4, 12]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    while True:
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        g = (d @ d.T)[np.triu_indices(n, k=1)]
        if np.arccos(np.clip(g, -1.0, 1.0)).min() > 0.1:
            return d


@st.composite
def rotations(draw):
    """A rotation matrix from a random nonzero quaternion."""
    q = np.array(draw(
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
        .filter(lambda v: np.linalg.norm(v) > 0.1)
    ))
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def mesh_params():
    return st.tuples(st.integers(2, 4), st.integers(3, 6), st.sampled_from([1.0, 2.0, 3.0]))


def top(directions, L, kappa, params):
    A = StarAssembler(make_star(directions, L, 0.0), build_mesh(L, *params)).matrix(kappa)
    return np.linalg.eigvalsh(A)[-1]


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    stars(),
    st.floats(0.5, 5.0),
    st.floats(0.1, 10.0),
    st.floats(0.25, 4.0),
    mesh_params(),
)
# order 3 puts a node at each panel midpoint, where the layout ratios of a
# grading-2 mesh hit their thresholds exactly
@example(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), 1.0, 1.0, 3.0, (3, 3, 2.0))
# kappa = 0 closes every root bracket and counts the levels
@example(sharp_configuration(4), 2.0, 0.0, 3.0, (4, 6, 2.0))
def test_scaling_covariance(directions, L, kappa, zeta, params):
    base = top(directions, L, kappa, params)
    scaled = top(directions, zeta * L, kappa / zeta, params)
    assert close(scaled, base + math.log(zeta) / (2.0 * math.pi))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(stars(), st.floats(0.5, 5.0), st.floats(0.1, 10.0), mesh_params(), rotations())
def test_rotation_invariance(directions, L, kappa, params, R):
    assert close(top(directions @ R.T, L, kappa, params), top(directions, L, kappa, params))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(stars(), st.floats(0.5, 5.0), st.floats(0.1, 10.0), mesh_params(), st.randoms())
def test_arm_permutation_invariance(directions, L, kappa, params, rnd):
    order = list(range(directions.shape[0]))
    rnd.shuffle(order)
    assert close(top(directions[order], L, kappa, params), top(directions, L, kappa, params))


def group_counts(directions):
    """``StarAssembler.group_counts`` of the star (None: not arm-regular)."""
    return StarAssembler(make_star(directions, 1.0, 0.0), build_mesh(1.0, 2, 2, 2.0)).group_counts


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 4, 6, 12, "orthogonal"]), rotations(), st.randoms())
def test_arm_regularity_invariance(star, R, rnd):
    directions = np.eye(3) if star == "orthogonal" else sharp_configuration(star)
    order = list(range(directions.shape[0]))
    rnd.shuffle(order)
    counts = group_counts(directions)
    assert counts is not None
    assert np.array_equal(group_counts(directions[order] @ R.T), counts)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4, 6, 12]), st.integers(0, 2**32 - 1))
def test_perturbed_sharp_star_is_irregular(n, seed):
    # the tangential perturbation of verify_sharp_local_max at scale 0.05
    rng = np.random.default_rng(seed)
    d = sharp_configuration(n).copy()
    for i in range(n):
        g = rng.standard_normal(3)
        t = g - np.dot(g, d[i]) * d[i]
        d[i] += 0.05 * t / np.linalg.norm(t)
        d[i] /= np.linalg.norm(d[i])
    assert group_counts(d) is None


def threshold(directions, L):
    return nonexistence_threshold(make_star(directions, L, 0.0))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(stars(), st.floats(0.1, 10.0), st.floats(0.25, 4.0))
@example(np.array([[0.0, 0.0, 1.0]]), 1.0, 3.0)
def test_threshold_scaling(directions, L, zeta):
    shift = threshold(directions, zeta * L) - threshold(directions, L)
    assert abs(shift - math.log(zeta) / (2.0 * math.pi)) <= TOL


@settings(max_examples=12, deadline=None, derandomize=True)
@given(stars(), st.floats(0.1, 10.0), rotations(), st.randoms())
def test_threshold_rotation_and_permutation_invariance(directions, L, R, rnd):
    order = list(range(directions.shape[0]))
    rnd.shuffle(order)
    assert close(threshold(directions[order] @ R.T, L), threshold(directions, L))
