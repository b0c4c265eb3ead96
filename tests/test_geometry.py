import math

import numpy as np
import pytest

from peg3d.geometry import (
    BOUNDARY,
    EVADER_DOMINANT,
    PURSUER_DOMINANT,
    ApolloniusSphere,
    DegenerateInputError,
    apollonius_sphere,
    dominance,
    pursuit_cone_halfangle,
    pursuit_offset_angle,
)


def ratio_locus_point(pursuer, evader, a, direction, tol=1e-13):
    """Brute-force point on the locus {X : |XE| = a |XP|}, found by bisection.

    Walks a ray from the evader (where |XE| - a|XP| < 0 for a < 1) outward
    until the sign flips, then bisects.  Independent of the closed form.
    """
    p = np.asarray(pursuer, float)
    e = np.asarray(evader, float)
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)

    def f(t):
        x = e + t * d
        return np.linalg.norm(x - e) - a * np.linalg.norm(x - p)

    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return e + 0.5 * (lo + hi) * d


class TestApolloniusSphere:
    def test_matches_band_scale_example(self):
        # frozen expectation computed from the ratio-locus oracle below
        sphere = apollonius_sphere((10.0, 10.0, 10.0), (-10.0, -10.0, 10.0), 0.5)
        assert sphere.center == pytest.approx((-16.6667, -16.6667, 10.0), abs=1e-3)
        assert sphere.radius == pytest.approx(18.8562, abs=1e-3)
        # oracle: 1000 sampled surface points keep the distance ratio
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = sphere.center + sphere.radius * dirs
        d_e = np.linalg.norm(pts - np.array([-10.0, -10.0, 10.0]), axis=1)
        d_p = np.linalg.norm(pts - np.array([10.0, 10.0, 10.0]), axis=1)
        assert np.max(np.abs(d_e / d_p - 0.5)) < 1e-9

    def test_axis_pair_against_bisection_oracle(self):
        p, e, a = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 0.5
        # two on-axis locus points bracket the sphere; midpoint and half-gap
        # give center and radius without using the closed form
        left = ratio_locus_point(p, e, a, (-1.0, 0.0, 0.0))
        right = ratio_locus_point(p, e, a, (1.0, 0.0, 0.0))
        center_x = 0.5 * (left[0] + right[0])
        radius = 0.5 * abs(right[0] - left[0])
        assert center_x == pytest.approx(-5.0 / 3.0, abs=1e-9)
        assert radius == pytest.approx(4.0 / 3.0, abs=1e-9)
        sphere = apollonius_sphere(p, e, a)
        assert sphere.center == pytest.approx((center_x, 0.0, 0.0), abs=1e-9)
        assert sphere.radius == pytest.approx(radius, abs=1e-9)

    def test_coincident_agents_rejected(self):
        with pytest.raises(DegenerateInputError):
            apollonius_sphere((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5)
        with pytest.raises(DegenerateInputError):
            apollonius_sphere((1.0, 2.0, 3.0), (1.0, 2.0, 3.0 + 1e-13), 0.5)

    def test_unit_ratio_rejected(self):
        with pytest.raises(DegenerateInputError):
            apollonius_sphere((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)

    def test_nonpositive_ratio_rejected(self):
        for a in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DegenerateInputError):
                apollonius_sphere((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), a)

    def test_nonfinite_position_rejected(self):
        with pytest.raises(ValueError):
            apollonius_sphere((math.nan, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5)

    @pytest.mark.parametrize(
        "point",
        [(1.0, 2.0), [1.0, 2.0, 3.0, 4.0], np.zeros((3, 1)), "123", b"123", 5.0, None, ("a", 1, 2)],
    )
    def test_point_that_is_not_three_numbers_rejected(self, point):
        with pytest.raises(ValueError, match="^evader must be 3 finite numbers, got "):
            apollonius_sphere((1.0, 0.0, 0.0), point, 0.5)

    def test_center_is_a_tuple_of_floats_for_any_iterable_of_numbers(self):
        sphere = apollonius_sphere((10.0, 10.0, 10.0), (-10.0, -10.0, 10.0), 0.5)
        assert type(sphere.center) is tuple
        assert all(type(c) is float for c in sphere.center)
        from_arrays = apollonius_sphere(np.full(3, 10.0), np.array([-10, -10, 10]), 0.5)
        assert from_arrays == apollonius_sphere([10, 10, 10], iter((-10.0, -10.0, 10.0)), 0.5)
        assert from_arrays == sphere

    def test_ratio_property_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = rng.uniform(-20.0, 20.0, size=3)
            e = rng.uniform(-20.0, 20.0, size=3)
            a = rng.uniform(0.1, 0.9)
            sphere = apollonius_sphere(p, e, a)
            dirs = rng.normal(size=(50, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts = sphere.center + sphere.radius * dirs
            ratio = np.linalg.norm(pts - e, axis=1) / np.linalg.norm(pts - p, axis=1)
            assert np.max(np.abs(ratio - a)) < 1e-9

    def test_evader_inside_pursuer_outside(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = rng.uniform(-20.0, 20.0, size=3)
            e = rng.uniform(-20.0, 20.0, size=3)
            if np.linalg.norm(p - e) < 1e-6:
                continue
            a = rng.uniform(0.1, 0.9)
            sphere = apollonius_sphere(p, e, a)
            assert np.linalg.norm(e - sphere.center) < sphere.radius
            assert np.linalg.norm(p - sphere.center) > sphere.radius

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = rng.uniform(-10.0, 10.0, size=3)
            e = rng.uniform(-10.0, 10.0, size=3)
            if np.linalg.norm(p - e) < 1e-6:
                continue
            a = rng.uniform(0.1, 0.9)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1.0
            t = rng.uniform(-5.0, 5.0, size=3)
            base = apollonius_sphere(p, e, a)
            moved = apollonius_sphere(q @ p + t, q @ e + t, a)
            assert np.allclose(moved.center, q @ base.center + t, atol=1e-9)
            assert moved.radius == pytest.approx(base.radius, abs=1e-9)


class TestDominance:
    def test_center_is_evader_dominant(self):
        sphere = apollonius_sphere((10.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5)
        assert dominance(sphere.center, sphere, 0.5) == EVADER_DOMINANT

    def test_pursuer_outside_own_sphere(self):
        p = (3.0, -2.0, 7.0)
        sphere = apollonius_sphere(p, (0.0, 1.0, 0.0), 0.7)
        assert np.linalg.norm(np.asarray(p) - sphere.center) > sphere.radius
        assert dominance(p, sphere, 0.7) == PURSUER_DOMINANT

    def test_boundary_band(self):
        sphere = ApolloniusSphere(center=np.zeros(3), radius=2.0)
        assert dominance((2.0, 0.0, 0.0), sphere, 0.5) == BOUNDARY
        assert dominance((2.0 + 5e-10, 0.0, 0.0), sphere, 0.5) == BOUNDARY
        assert dominance((2.1, 0.0, 0.0), sphere, 0.5) == PURSUER_DOMINANT
        assert dominance((1.9, 0.0, 0.0), sphere, 0.5) == EVADER_DOMINANT

    def test_invalid_ratio_rejected(self):
        sphere = ApolloniusSphere(center=np.zeros(3), radius=2.0)
        for a in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                dominance((1.0, 0.0, 0.0), sphere, a)

    def test_agrees_with_time_to_reach(self):
        # dominance tag must match a brute-force earliest-arrival comparison
        rng = np.random.default_rng(19)
        p = np.array([8.0, -3.0, 2.0])
        e = np.array([-4.0, 5.0, -1.0])
        a = 0.6
        v_p, v_e = 1.0, a
        sphere = apollonius_sphere(p, e, a)
        pts = rng.uniform(-40.0, 40.0, size=(1000, 3))
        for x in pts:
            tag = dominance(x, sphere, a)
            if tag == BOUNDARY:
                continue
            t_e = np.linalg.norm(x - e) / v_e
            t_p = np.linalg.norm(x - p) / v_p
            assert (t_e < t_p) == (tag == EVADER_DOMINANT)


class TestCones:
    def test_halfangle_band_speeds(self):
        # asin(1/1.1) = 1.1410966...; computed independently here
        assert pursuit_cone_halfangle(1.1, 1.0) == math.asin(1.0 / 1.1)
        assert pursuit_cone_halfangle(1.1, 1.0) == pytest.approx(1.141097, abs=1e-6)

    def test_halfangle_simple(self):
        assert pursuit_cone_halfangle(2.0, 1.0) == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_halfangle_requires_faster_pursuer(self):
        with pytest.raises(ValueError):
            pursuit_cone_halfangle(1.0, 1.0)
        with pytest.raises(ValueError):
            pursuit_cone_halfangle(1.0, 1.2)
        with pytest.raises(ValueError):
            pursuit_cone_halfangle(-1.0, 0.5)

    def test_offset_angle_examples(self):
        assert pursuit_offset_angle(math.pi / 2.0, 1.1, 1.0) == pytest.approx(
            pursuit_cone_halfangle(1.1, 1.0), abs=1e-12
        )
        assert pursuit_offset_angle(0.0, 2.0, 1.0) == 0.0
        assert pursuit_offset_angle(math.pi / 4.0, 2.0, 1.0) == pytest.approx(
            math.asin(math.sqrt(2.0) / 4.0), abs=1e-12
        )
        assert pursuit_offset_angle(math.pi / 4.0, 2.0, 1.0) == pytest.approx(0.36136, abs=1e-5)

    def test_offset_angle_domain_error(self):
        with pytest.raises(ValueError):
            pursuit_offset_angle(math.pi / 2.0, 1.0, 1.5)

    def test_offset_angle_monotone_and_maximized_at_right_angle(self):
        grid = np.linspace(0.0, math.pi / 2.0, 2001)
        vals = [pursuit_offset_angle(t, 1.1, 1.0) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == max(vals)
