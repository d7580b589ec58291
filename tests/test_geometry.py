import numpy as np
import pytest

from starspec.errors import (
    CoincidentArms,
    NonpositiveLength,
    NonUnitDirection,
    SizeMismatch,
    UnsupportedN,
)
from starspec.geometry import (
    congruent,
    make_star,
    pair_chords,
    sharp_configuration,
    spherical_design_check,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestMakeStar:
    def test_antipodal_pair_valid(self):
        cfg = make_star([(0, 0, 1), (0, 0, -1)], 1.0, 0.0)
        assert cfg.n_arms == 2
        assert cfg.arm_length == 1.0

    def test_coincident_arms_rejected(self):
        with pytest.raises(CoincidentArms):
            make_star([(0, 0, 1), (0, 0, 1)], 1.0, 0.0)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitDirection):
            make_star([(0, 0, 2)], 1.0, 0.0)

    def test_nonpositive_length(self):
        with pytest.raises(NonpositiveLength):
            make_star([(0, 0, 1)], -1.0, 0.0)
        with pytest.raises(NonpositiveLength):
            make_star([(0, 0, 1)], float("inf"), 0.0)

    def test_near_unit_renormalized(self):
        cfg = make_star([(0, 0, 1 + 5e-10)], 1.0, 0.0)
        assert abs(np.linalg.norm(cfg.directions[0]) - 1.0) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(NonUnitDirection):
            make_star([], 1.0, 0.0)


def chord_sq(a, b) -> float:
    """The squared chord of one pair, from ``pair_chords``."""
    return float(pair_chords(np.array([a, b], dtype=float))[0])


class TestChordSq:
    def test_antipodal(self):
        assert chord_sq((0, 0, 1), (0, 0, -1)) == pytest.approx(4.0, abs=1e-15)

    def test_orthogonal(self):
        assert chord_sq((0, 0, 1), (1, 0, 0)) == pytest.approx(2.0, abs=1e-15)

    def test_tetrahedron_pair(self):
        pts = sharp_configuration(4)
        assert chord_sq(pts[0], pts[1]) == pytest.approx(8.0 / 3.0, abs=1e-14)

    def test_symmetric_and_rotation_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            R = random_rotation(rng)
            assert chord_sq(a, b) == pytest.approx(chord_sq(b, a), abs=1e-15)
            assert chord_sq(R @ a, R @ b) == pytest.approx(chord_sq(a, b), abs=1e-12)

    def test_pairs_in_row_major_order(self):
        dirs = np.random.default_rng(4).standard_normal((5, 3))
        expected = [np.sum((dirs[i] - dirs[j]) ** 2) for i in range(5) for j in range(i + 1, 5)]
        assert np.array_equal(pair_chords(dirs), expected)

    @pytest.mark.parametrize("angle", [1e-8, 1e-5, 0.05])
    def test_keeps_its_digits_at_small_angles(self, angle):
        # 2 - 2 <d_i, d_j> is 0 at 1e-8 rad and 8e-8 off at 1e-5
        c = chord_sq((0, 0, 1), (np.sin(angle), 0, np.cos(angle)))
        assert c == pytest.approx(4.0 * np.sin(angle / 2) ** 2, rel=1e-15)


# inner-product multisets characterizing the five sharp configurations
SHARP_PRODUCTS = {
    2: [-1.0],
    3: [-0.5] * 3,
    4: [-1.0 / 3.0] * 6,
    6: [-1.0] * 3 + [0.0] * 12,
    12: [-1.0] * 6 + [-(5.0 ** -0.5)] * 30 + [5.0 ** -0.5] * 30,
}


class TestSharpConfiguration:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
    def test_inner_product_multiset(self, n):
        pts = sharp_configuration(n)
        g = pts @ pts.T
        ips = np.sort(g[np.triu_indices(n, 1)])
        assert np.allclose(ips, np.sort(SHARP_PRODUCTS[n]), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
    def test_unit_norms_and_gauge(self, n):
        pts = sharp_configuration(n)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
        assert np.allclose(pts[0], [0, 0, 1], atol=1e-14)
        assert abs(pts[1][1]) < 1e-14 and pts[1][0] >= 0.0

    def test_unsupported(self):
        with pytest.raises(UnsupportedN):
            sharp_configuration(5)


class TestCongruent:
    def test_rotated_tetrahedron(self):
        rng = np.random.default_rng(3)
        tet = sharp_configuration(4)
        R = random_rotation(rng)
        assert congruent(tet, tet @ R.T, tol=1e-9)

    def test_different_sets(self):
        tet = sharp_configuration(4)
        pyramid = np.array(
            [[0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, 0, 0]], dtype=float
        )
        assert not congruent(tet, pyramid, tol=1e-3)

    def test_perturbed_octahedron(self):
        octa = sharp_configuration(6)
        moved = octa.copy()
        # rotate one vertex by 0.1 rad in the x-z plane
        c, s = np.cos(0.1), np.sin(0.1)
        moved[2] = [c * moved[2][0] - s * moved[2][2], 0.0, s * moved[2][0] + c * moved[2][2]]
        assert not congruent(octa, moved, tol=1e-3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            congruent(sharp_configuration(4), sharp_configuration(6))

    def test_equivalence_relation(self):
        rng = np.random.default_rng(11)
        zoo = [sharp_configuration(4), sharp_configuration(4) @ random_rotation(rng).T]
        zoo.append(zoo[1] @ random_rotation(rng).T)
        for cfg in zoo:
            assert congruent(cfg, cfg, tol=1e-12)  # reflexive
        assert congruent(zoo[0], zoo[1], tol=1e-9) == congruent(zoo[1], zoo[0], tol=1e-9)
        if congruent(zoo[0], zoo[1], tol=1e-9) and congruent(zoo[1], zoo[2], tol=1e-9):
            assert congruent(zoo[0], zoo[2], tol=2e-9)  # transitive on the zoo


class TestSphericalDesign:
    def test_octahedron_is_3_design(self):
        ok, dev = spherical_design_check(sharp_configuration(6), 3)
        assert ok and dev <= 1e-10

    def test_octahedron_fails_order_4(self):
        ok, dev = spherical_design_check(sharp_configuration(6), 4)
        # x^4 has point mean 1/3 versus sphere mean 1/5
        assert not ok
        assert dev == pytest.approx(1.0 / 3.0 - 1.0 / 5.0, abs=1e-12)

    def test_icosahedron_is_5_design(self):
        ok, dev = spherical_design_check(sharp_configuration(12), 5)
        assert ok and dev <= 1e-10

    def test_icosahedron_fails_order_6(self):
        ok, dev = spherical_design_check(sharp_configuration(12), 6)
        assert not ok and dev > 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
    def test_design_order_2m_minus_1(self, n):
        # m distinct pairwise inner products make a spherical (2m-1)-design
        m = {2: 1, 3: 1, 4: 1, 6: 2, 12: 3}[n]
        pts = sharp_configuration(n)
        ips = np.sort((pts @ pts.T)[np.triu_indices(n, 1)])
        assert np.count_nonzero(np.diff(ips) > 1e-12) + 1 == m
        ok, _ = spherical_design_check(pts, 2 * m - 1)
        assert ok
