import math

import numpy as np
import pytest

from peg3d.env import (
    CAPTURED,
    RUNNING,
    TIMEOUT,
    TURN_LIMIT,
    AgentState,
    Obstacle,
    check_termination,
    cone_limited_command,
    heading_vector,
    nearest_obstacle,
    step_agent,
    wrap_angle,
)
from peg3d.scenarios import TrainConfig, build_arena


def agent(pos, alpha=0.0, theta=math.pi / 2.0, speed=1.0):
    return AgentState(position=pos, alpha=alpha, theta=theta, speed=speed)


class TestWrapAngle:
    def test_range_is_half_open(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_idempotent_inside_range(self):
        for a in (-3.0, -0.5, 0.0, 1.0, 3.0):
            assert wrap_angle(a) == pytest.approx(a, abs=1e-12)

    def test_randomized(self):
        rng = np.random.default_rng(3)
        for a in rng.uniform(-50.0, 50.0, size=1000):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


class TestHeadingVector:
    def test_cardinal_directions(self):
        assert heading_vector(0.0, math.pi / 2.0) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
        assert heading_vector(math.pi / 2.0, math.pi / 2.0) == pytest.approx(
            (0.0, 1.0, 0.0), abs=1e-15
        )
        assert heading_vector(1.234, 0.0) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            h = heading_vector(rng.uniform(-math.pi, math.pi), rng.uniform(0.0, math.pi))
            assert abs(math.hypot(*h) - 1.0) <= 1e-12


class TestStepAgent:
    def test_turn_clamped_to_the_limit(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((5.0, 5.0, 5.0), theta=1.5), 2.0, -2.0, 0.1, arena)
        assert (s.alpha, s.theta) == (TURN_LIMIT, 1.5 - TURN_LIMIT)

    def test_turn_within_limits_untouched(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((5.0, 5.0, 5.0), theta=1.5), 0.3, -0.3, 0.1, arena)
        assert (s.alpha, s.theta) == (0.3, 1.5 - 0.3)

    def test_unit_motion_along_x(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((0.0, 0.0, 0.0)), 0.0, 0.0, 1.0, arena)
        assert s.position == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_vertical_motion_at_zero_polar(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((0.0, 0.0, 0.0), alpha=2.5, theta=0.0), 0.0, 0.0, 1.0, arena)
        assert s.position == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_turn_applied_before_advance(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((0.0, 0.0, 0.0), speed=1.1), math.pi / 4.0, 0.0, 0.1, arena)
        assert s.alpha == pytest.approx(math.pi / 4.0, abs=1e-12)
        expected = 0.11 * math.cos(math.pi / 4.0)
        assert s.position == pytest.approx((expected, expected, 0.0), abs=1e-9)
        assert s.position[0] == pytest.approx(0.07778, abs=1e-5)

    def test_displacement_magnitude_randomized(self):
        arena = build_arena(TrainConfig(), [])
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            pos = tuple(rng.uniform(1.0, 19.0, size=3))
            st = agent(
                pos,
                alpha=rng.uniform(-math.pi, math.pi),
                theta=rng.uniform(0.0, math.pi),
                speed=rng.uniform(0.1, 1.1),
            )
            dalpha, dtheta = rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
            dt = rng.uniform(0.01, 0.5)
            moved = step_agent(st, dalpha, dtheta, dt, arena)
            assert abs(math.dist(moved.position, pos) - st.speed * dt) <= 1e-12

    def test_position_clipped_to_box(self):
        arena = build_arena(TrainConfig(arena_extents=(10.0, 10.0, 5.0)), [])
        s = step_agent(agent((9.95, 5.0, 0.0)), 0.0, 0.0, 1.0, arena)
        assert s.position[0] == 10.0
        s = step_agent(agent((0.02, 5.0, 0.0), alpha=math.pi), 0.0, 0.0, 1.0, arena)
        assert s.position[0] == 0.0

    def test_theta_clamped_to_polar_range(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((5.0, 5.0, 5.0), theta=0.1), 0.0, -0.5, 1.0, arena)
        assert s.theta == 0.0
        s = step_agent(agent((5.0, 5.0, 5.0), theta=3.0), 0.0, 0.5, 1.0, arena)
        assert s.theta == math.pi

    def test_alpha_wraps(self):
        arena = build_arena(TrainConfig(), [])
        s = step_agent(agent((5.0, 5.0, 5.0), alpha=3.0), 0.5, 0.0, 0.1, arena)
        assert -math.pi < s.alpha <= math.pi
        assert s.alpha == pytest.approx(3.5 - 2.0 * math.pi, abs=1e-12)

    def test_straight_line_with_zero_commands(self):
        arena = build_arena(TrainConfig(arena_extents=(100.0, 100.0, 100.0)), [])
        st = agent((10.0, 10.0, 10.0), alpha=0.7, theta=1.1, speed=1.0)
        first = None
        prev = st
        for _ in range(50):
            nxt = step_agent(prev, 0.0, 0.0, 0.1, arena)
            d = np.subtract(nxt.position, prev.position)
            if first is None:
                first = d / np.linalg.norm(d)
            else:
                cross = np.cross(first, d / np.linalg.norm(d))
                assert np.linalg.norm(cross) < 1e-9
            prev = nxt


class TestTermination:
    def test_captured_within_distance(self):
        arena = build_arena(TrainConfig(), [])
        p = agent((0.0, 0.0, 0.0))
        e = agent((0.66, 0.0, 0.0))
        assert check_termination(p, e, arena, 400) == CAPTURED

    def test_capture_inclusive_at_threshold(self):
        arena = build_arena(TrainConfig(), [])
        p = agent((0.0, 0.0, 0.0))
        e = agent((1.0, 0.0, 0.0))
        assert check_termination(p, e, arena, 0) == CAPTURED

    def test_timeout_once_the_play_budget_is_spent(self):
        arena = build_arena(TrainConfig(), [])
        p = agent((0.0, 0.0, 0.0))
        e = agent((5.0, 0.0, 0.0))
        assert check_termination(p, e, arena, 999) == RUNNING
        assert check_termination(p, e, arena, 1000) == TIMEOUT

    def test_capture_takes_precedence_over_timeout(self):
        arena = build_arena(TrainConfig(), [])
        p = agent((0.0, 0.0, 0.0))
        e = agent((0.5, 0.0, 0.0))
        assert check_termination(p, e, arena, 2000) == CAPTURED

    def test_timeout_monotone_in_steps(self):
        arena = build_arena(TrainConfig(), [])
        p = agent((0.0, 0.0, 0.0))
        e = agent((5.0, 0.0, 0.0))
        fired = False
        for steps in range(0, 3001, 5):
            out = check_termination(p, e, arena, steps)
            if fired:
                assert out == TIMEOUT
            fired = out == TIMEOUT
        assert fired


class TestObstacles:
    def test_surface_distance(self):
        arena = build_arena(TrainConfig(), [Obstacle(center=(6.0, 5.0, 3.0), radius=1.0)])
        obs, dist = nearest_obstacle((3.0, 5.0, 3.0), arena)
        assert obs is arena.obstacles[0]
        assert dist == pytest.approx(2.0, abs=1e-12)

    def test_negative_inside(self):
        arena = build_arena(TrainConfig(), [Obstacle(center=(3.0, 3.0, 3.0), radius=1.0)])
        _, dist = nearest_obstacle((3.0, 3.0, 3.5), arena)
        assert dist == pytest.approx(-0.5, abs=1e-12)

    def test_argmin_prefers_first(self):
        first = Obstacle(center=(5.0, 3.0, 3.0), radius=1.0)
        second = Obstacle(center=(8.0, 3.0, 3.0), radius=1.0)
        arena = build_arena(TrainConfig(), [first, second])
        obs, dist = nearest_obstacle((3.0, 3.0, 3.0), arena)
        assert obs is first
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_tie_returns_first_listed(self):
        left = Obstacle(center=(3.0, 5.0, 3.0), radius=1.0)
        right = Obstacle(center=(7.0, 5.0, 3.0), radius=1.0)
        arena = build_arena(TrainConfig(), [left, right])
        obs, _ = nearest_obstacle((5.0, 5.0, 3.0), arena)
        assert obs is left

    def test_empty_arena_sentinel(self):
        arena = build_arena(TrainConfig(), [])
        obs, dist = nearest_obstacle((1.0, 2.0, 3.0), arena)
        assert obs is None
        assert dist == 35.0


class TestConeLimitedCommand:
    def test_compliant_command_passes_through(self):
        st = agent((0.0, 0.0, 0.0))  # heading +x
        da, dth = cone_limited_command(st, 0.1, -0.05, (10.0, 0.0, 0.0), 0.5)
        assert (da, dth) == (0.1, -0.05)

    def test_violating_command_turns_toward_target(self):
        st = agent((0.0, 0.0, 0.0), alpha=math.pi / 2.0)  # heading +y, target +x
        da, dth = cone_limited_command(st, 0.2, 0.0, (10.0, 0.0, 0.0), 0.1)
        assert da == -TURN_LIMIT  # fastest legal turn back toward +x
        assert dth == 0.0

    def test_aiming_command_clamped_by_turn_limit(self):
        st = agent((0.0, 0.0, 0.0), alpha=math.pi)  # heading -x, target +x
        da, dth = cone_limited_command(st, 0.0, 0.0, (5.0, 0.0, 0.0), 0.25)
        assert abs(da) == TURN_LIMIT

    def test_zero_target_only_clamps(self):
        st = agent((0.0, 0.0, 0.0))
        da, dth = cone_limited_command(st, 1.2, -1.2, (0.0, 0.0, 0.0), 0.3)
        assert da == TURN_LIMIT
        assert dth == -TURN_LIMIT

    def test_vertical_target_well_defined(self):
        st = agent((0.0, 0.0, 0.0))
        da, dth = cone_limited_command(st, 0.0, 0.0, (0.0, 0.0, 5.0), 0.1)
        assert dth == -TURN_LIMIT  # polar angle decreases toward straight up
        assert da == 0.0
