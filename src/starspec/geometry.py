"""Star configurations on the unit sphere and the five sharp configurations.

A star is a set of N unit direction vectors (one per arm), an arm length L
and a coupling constant alpha.  Sharp configurations (N = 2, 3, 4, 6, 12)
are the universally optimal point sets on S^2; they are characterized by
their pairwise inner-product multisets and are spherical designs of order
2m-1, where m is the number of distinct inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, sqrt, pi

import numpy as np

from .errors import (
    CoincidentArms,
    NonpositiveLength,
    NonUnitDirection,
    SizeMismatch,
    UnsupportedN,
)

UNIT_NORM_TOL = 1e-9
COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class StarConfig:
    """An equilateral star: N unit directions, arm length and coupling."""

    directions: np.ndarray  # shape (N, 3), rows unit norm
    arm_length: float
    coupling: float

    @property
    def n_arms(self) -> int:
        return self.directions.shape[0]

    def pair_angles(self) -> np.ndarray:
        """Angles between all unordered pairs of arms (i < j, row-major),
        radians; from the chords 2 sin(phi/2), which keep their relative
        accuracy at the smallest angles ``make_star`` admits."""
        i, j = np.triu_indices(self.n_arms, k=1)
        chords = np.linalg.norm(self.directions[i] - self.directions[j], axis=1)
        return 2.0 * np.arcsin(np.minimum(0.5 * chords, 1.0))


def unit_directions(directions) -> np.ndarray:
    """Validate a nonempty list of 3-vectors as unit directions.

    Directions within 1e-9 of unit norm are renormalized; anything farther
    is rejected.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.ndim != 2 or dirs.shape[1] != 3 or dirs.shape[0] < 1:
        raise NonUnitDirection("directions must be a nonempty list of 3-vectors")
    norms = np.linalg.norm(dirs, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > UNIT_NORM_TOL):
        i = int(np.argmax(off))
        raise NonUnitDirection(
            f"direction {i} has norm {norms[i]:.12g} (allowed deviation {UNIT_NORM_TOL})"
        )
    return dirs / norms[:, None]


def make_star(directions, L: float, alpha: float) -> StarConfig:
    """Validate and build a star configuration.

    Directions are checked by ``unit_directions``.  Coincident arms (closer
    than 1e-9) are rejected.
    """
    dirs = unit_directions(directions)
    n = dirs.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(dirs[i] - dirs[j]) < COINCIDENCE_TOL:
                raise CoincidentArms(f"arms {i} and {j} coincide")
    if not np.isfinite(L) or L <= 0:
        raise NonpositiveLength(f"arm length must be positive and finite, got {L}")
    return StarConfig(directions=dirs, arm_length=float(L), coupling=float(alpha))


def chord_sq(dir_i, dir_j) -> float:
    """Squared chord distance |d_i - d_j|^2 = 2 - 2 <d_i, d_j> between unit vectors."""
    return float(2.0 - 2.0 * np.dot(np.asarray(dir_i, float), np.asarray(dir_j, float)))


def _icosahedron() -> np.ndarray:
    """Icosahedron vertices, north pole first, second vertex in the x-z half plane."""
    ct = 1.0 / sqrt(5.0)
    st = 2.0 / sqrt(5.0)
    upper = [
        (st * np.cos(2 * pi * k / 5), st * np.sin(2 * pi * k / 5), ct) for k in range(5)
    ]
    lower = [
        (st * np.cos(2 * pi * k / 5 + pi / 5), st * np.sin(2 * pi * k / 5 + pi / 5), -ct)
        for k in range(5)
    ]
    return np.array([(0.0, 0.0, 1.0)] + upper + lower + [(0.0, 0.0, -1.0)])


_SHARP_COORDS = {
    2: np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
    3: np.array(
        [
            [0.0, 0.0, 1.0],
            [sqrt(3.0) / 2.0, 0.0, -0.5],
            [-sqrt(3.0) / 2.0, 0.0, -0.5],
        ]
    ),
    4: np.array(
        [
            [0.0, 0.0, 1.0],
            [2.0 * sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
            [-sqrt(2.0) / 3.0, sqrt(2.0 / 3.0), -1.0 / 3.0],
            [-sqrt(2.0) / 3.0, -sqrt(2.0 / 3.0), -1.0 / 3.0],
        ]
    ),
    6: np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
        ]
    ),
    12: _icosahedron(),
}
#: the numbers of points that have a sharp configuration
SHARP_SIZES = tuple(_SHARP_COORDS)


def sharp_configuration(N: int) -> np.ndarray:
    """Coordinates of the sharp configuration with N points.

    The orientation is canonical: the first point is the north pole and the
    second lies in the x-z half plane (x >= 0), so the coordinates are also
    valid gauge-fixed optimizer output.
    """
    if N not in _SHARP_COORDS:
        raise UnsupportedN(
            f"no sharp configuration for N={N}; valid: {', '.join(map(str, SHARP_SIZES))}"
        )
    return _SHARP_COORDS[N].copy()


def _pair_products(points: np.ndarray) -> np.ndarray:
    g = points @ points.T
    iu = np.triu_indices(points.shape[0], k=1)
    return np.sort(g[iu])


def congruent(a, b, tol: float = 1e-9) -> bool:
    """Whether two direction sets have the same pairwise inner-product multiset.

    Sorted multisets are compared elementwise within ``tol``.  This is
    necessary for congruence in general and sufficient for the five sharp
    families, which are rigid.
    """
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    if a.shape[0] != b.shape[0]:
        raise SizeMismatch(f"direction sets have sizes {a.shape[0]} and {b.shape[0]}")
    if a.shape[0] < 2:
        return True
    return bool(np.all(np.abs(_pair_products(a) - _pair_products(b)) <= tol))


def _sphere_monomial_mean(a: int, b: int, c: int) -> float:
    """Mean of x^a y^b z^c over the unit sphere (zero for odd exponents)."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = 2.0 * gamma((a + 1) / 2) * gamma((b + 1) / 2) * gamma((c + 1) / 2)
    return num / gamma((a + b + c + 3) / 2) / (4.0 * pi)


def spherical_design_check(points, M: int, tol: float = 1e-10):
    """Test whether a point set is a spherical M-design.

    Compares the point-set mean of every monomial x^a y^b z^c of total
    degree <= M against the exact sphere mean.

    Returns
    -------
    (ok, max_deviation) : tuple of bool and float
    """
    pts = np.atleast_2d(np.asarray(points, float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    worst = 0.0
    for deg in range(1, M + 1):
        for a in range(deg + 1):
            for b in range(deg - a + 1):
                c = deg - a - b
                point_mean = float(np.mean(x**a * y**b * z**c))
                dev = abs(point_mean - _sphere_monomial_mean(a, b, c))
                worst = max(worst, dev)
    return worst <= tol, worst
