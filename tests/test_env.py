import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from floatbits import bits


def agent(pos, alpha=0.0, theta=math.pi / 2.0, speed=1.0):
    return AgentState(position=pos, alpha=alpha, theta=theta, speed=speed)


class TestAgentState:
    def test_fields_cannot_be_assigned(self):
        state = agent((1.0, 2.0, 3.0))
        for name, value in (("position", (0.0, 0.0, 0.0)), ("alpha", 1.0), ("speed", 2.0)):
            with pytest.raises(AttributeError):
                setattr(state, name, value)
        assert state == agent((1.0, 2.0, 3.0))

    def test_fields_by_name(self):
        state = AgentState((1.0, 2.0, 3.0), 0.5, 1.5, 1.1)
        assert (state.position, state.alpha, state.theta, state.speed) == (
            (1.0, 2.0, 3.0),
            0.5,
            1.5,
            1.1,
        )


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


# The max/min forms of the clamps in step_agent and cone_limited_command, kept
# here as references for the comparison chains in src/.
def reference_step_agent(state, dalpha, dtheta, dt, arena):
    alpha = wrap_angle(state.alpha + max(-TURN_LIMIT, min(TURN_LIMIT, dalpha)))
    theta = state.theta + max(-TURN_LIMIT, min(TURN_LIMIT, dtheta))
    if theta < 0.0:
        theta = 0.0
    elif theta > math.pi:
        theta = math.pi
    step = state.speed * dt
    sin_theta = math.sin(theta)
    x, y, z = state.position
    x += step * sin_theta * math.cos(alpha)
    y += step * sin_theta * math.sin(alpha)
    z += step * math.cos(theta)
    ex, ey, ez = arena.extents
    position = (
        ex if x > ex else (0.0 if x < 0.0 else x),
        ey if y > ey else (0.0 if y < 0.0 else y),
        ez if z > ez else (0.0 if z < 0.0 else z),
    )
    return AgentState(position=position, alpha=alpha, theta=theta, speed=state.speed)


def reference_cone_limited_command(state, dalpha, dtheta, target, max_offset):
    tx, ty, tz = target
    t_norm = math.sqrt(tx * tx + ty * ty + tz * tz)
    if t_norm < 1e-12:
        return (
            max(-TURN_LIMIT, min(TURN_LIMIT, dalpha)),
            max(-TURN_LIMIT, min(TURN_LIMIT, dtheta)),
        )
    da = max(-TURN_LIMIT, min(TURN_LIMIT, dalpha))
    dth = max(-TURN_LIMIT, min(TURN_LIMIT, dtheta))
    alpha = wrap_angle(state.alpha + da)
    theta = state.theta + dth
    theta = 0.0 if theta < 0.0 else (math.pi if theta > math.pi else theta)
    hx, hy, hz = heading_vector(alpha, theta)
    cosine = (hx * tx + hy * ty + hz * tz) / t_norm
    if math.acos(max(-1.0, min(1.0, cosine))) <= max_offset:
        return da, dth
    horizontal = math.hypot(tx, ty)
    alpha_star = math.atan2(ty, tx) if horizontal > 1e-12 else state.alpha
    theta_star = math.atan2(horizontal, tz)
    da = max(-TURN_LIMIT, min(TURN_LIMIT, wrap_angle(alpha_star - state.alpha)))
    dth = max(-TURN_LIMIT, min(TURN_LIMIT, theta_star - state.theta))
    return da, dth


def state_bits(state) -> bytes:
    return bits([*state.position, state.alpha, state.theta, state.speed])


def _nan(pattern: int) -> float:
    """The float64 whose bits are ``pattern``."""
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


class TestBits:
    """The shared ``bits`` helper tells every value apart but a NaN's sign and payload."""

    @pytest.mark.parametrize(
        "a, b",
        [(-0.0, 0.0), (math.nan, 0.0), (math.nan, 1.0), (math.nan, math.inf), (math.nan, -1e308)],
    )
    def test_differs(self, a, b):
        assert bits(a) != bits(b)
        assert bits([1.0, a]) != bits([1.0, b])

    def test_every_nan_is_one_nan(self):
        negative, payload = _nan(0xFFF8000000000000), _nan(0x7FF8000000000001)
        assert bits(negative) == bits(payload) == bits(math.nan)
        assert bits([negative, -0.0]) == bits([math.nan, -0.0])
        values = np.array([negative])
        bits(values)
        assert values.tobytes() == np.float64(negative).tobytes()  # the input stays as it was


LIMIT_EDGES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, TURN_LIMIT, -TURN_LIMIT,
    math.nextafter(TURN_LIMIT, 0.0), math.nextafter(TURN_LIMIT, math.inf),
    math.nextafter(-TURN_LIMIT, 0.0), math.nextafter(-TURN_LIMIT, -math.inf),
]  # fmt: skip
TURNS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(LIMIT_EDGES))
ANGLE_EDGES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2.0]
ALPHAS = st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(ANGLE_EDGES))
THETAS = st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, -0.0, math.pi, math.pi / 2.0]))


@st.composite
def states(draw):
    position = tuple(draw(st.floats(-1.0, 40.0)) for _ in range(3))
    speed = draw(st.sampled_from([0.0, 1.0, 1.1, 3.0]))
    return AgentState(position, draw(ALPHAS), draw(THETAS), speed)


@st.composite
def targets(draw):
    """A target direction: anywhere, zero or near zero, along an axis, or NaN and infinite."""
    kind = draw(st.sampled_from(["any", "zero", "tiny", "axis", "special"]))
    if kind == "special":  # an infinite norm or a NaN makes the cosine NaN
        parts = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0])
        return tuple(draw(parts) for _ in range(3))
    if kind == "zero":
        return draw(st.sampled_from([(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]))
    if kind == "tiny":
        return tuple(draw(st.floats(-1e-12, 1e-12)) for _ in range(3))
    if kind == "axis":
        scale = draw(st.floats(-30.0, 30.0))
        return draw(st.sampled_from([(scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, scale)]))
    return tuple(draw(st.floats(-40.0, 40.0)) for _ in range(3))


class TestMatchesMaxMinReference:
    """``step_agent`` and ``cone_limited_command`` are bit for bit their max/min forms."""

    @settings(max_examples=500, deadline=None)
    @given(
        state=states(),
        dalpha=TURNS,
        dtheta=TURNS,
        dt=st.sampled_from([0.01, 0.1, 1.0]),
        extents=st.sampled_from([(35.0, 35.0, 20.0), (10.0, 10.0, 5.0)]),
    )
    def test_step_agent(self, state, dalpha, dtheta, dt, extents):
        arena = build_arena(TrainConfig(arena_extents=extents), [])
        moved = step_agent(state, dalpha, dtheta, dt, arena)
        ref = reference_step_agent(state, dalpha, dtheta, dt, arena)
        assert type(moved) is AgentState and type(moved.position) is tuple
        assert state_bits(moved) == state_bits(ref)

    @settings(max_examples=500, deadline=None)
    @given(
        state=states(),
        dalpha=TURNS,
        dtheta=TURNS,
        target=targets(),
        max_offset=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2.0])),
    )
    def test_cone_limited_command(self, state, dalpha, dtheta, target, max_offset):
        got = cone_limited_command(state, dalpha, dtheta, target, max_offset)
        ref = reference_cone_limited_command(state, dalpha, dtheta, target, max_offset)
        assert type(got) is tuple and bits(got) == bits(ref)

    @pytest.mark.parametrize("turn", LIMIT_EDGES)
    def test_clamp_edges(self, turn):
        # NaN clamps to +TURN_LIMIT in both forms: min(TURN_LIMIT, nan) is TURN_LIMIT.
        arena = build_arena(TrainConfig(), [])
        state = agent((5.0, 5.0, 5.0), alpha=0.5, theta=1.5)
        for dalpha, dtheta in ((turn, 0.0), (0.0, turn), (turn, turn)):
            ref = reference_step_agent(state, dalpha, dtheta, 0.1, arena)
            assert state_bits(step_agent(state, dalpha, dtheta, 0.1, arena)) == state_bits(ref)
            for target in ((10.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-3.0, 4.0, 0.0)):
                got = cone_limited_command(state, dalpha, dtheta, target, 0.2)
                ref = reference_cone_limited_command(state, dalpha, dtheta, target, 0.2)
                assert bits(got) == bits(ref)
