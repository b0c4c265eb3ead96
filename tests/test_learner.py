import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peg3d.env import TURN_LIMIT, AgentState, Obstacle, heading_vector, nearest_obstacle
from peg3d.learner import NOISE_BLOCK, FuzzyActorCritic, LearnerConfig, extract_inputs, noise_stream
from peg3d.scenarios import TrainConfig, build_arena
from peg3d.training import build_rulebase

from floatbits import bits


def critic_value(learner: FuzzyActorCritic, phi: np.ndarray) -> float:
    """Critic state-value estimate for a firing vector, the ``@`` form of ``td_error``'s terms."""
    return float(learner.critic @ phi)


def one_hot(n, k):
    phi = np.zeros(n)
    phi[k] = 1.0
    return phi


class TestConstruction:
    def test_learning_rate_guard(self):
        with pytest.raises(ValueError, match="actor rate must be below critic rate"):
            LearnerConfig(alpha_actor=0.05, alpha_critic=0.05)
        with pytest.raises(ValueError, match="actor rate must be below critic rate"):
            LearnerConfig(alpha_actor=0.1, alpha_critic=0.05)

    def test_gamma_and_sigma_validated(self):
        with pytest.raises(ValueError, match="discount must lie in"):
            LearnerConfig(gamma=1.0)
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            LearnerConfig(sigma=0.0)

    @pytest.mark.parametrize("name", ["alpha_actor", "alpha_critic", "sigma"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rates_and_sigma_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {value!r}$"):
            LearnerConfig(**{name: value})

    def test_zero_initialization(self):
        learner = FuzzyActorCritic(625, LearnerConfig())
        assert not learner.actor.any()
        assert not learner.critic.any()
        assert learner.actor.shape == (2, 625)


class TestAct:
    def test_zero_weights_zero_action(self):
        learner = FuzzyActorCritic(8, LearnerConfig())
        u, u_exec = learner.act(one_hot(8, 2), noise=None)
        assert np.array_equal(u, np.zeros(2))
        assert np.array_equal(u_exec, np.zeros(2))

    def test_one_hot_firing_reads_weight(self):
        learner = FuzzyActorCritic(8, LearnerConfig())
        learner.actor[0, 3] = 0.25
        learner.actor[1, 3] = -0.5
        u, _ = learner.act(one_hot(8, 3), noise=None)
        assert u == pytest.approx([0.25, -0.5], abs=1e-15)

    def test_executed_action_clamped(self):
        learner = FuzzyActorCritic(4, LearnerConfig())
        learner.actor[0, 1] = math.pi / 3.0
        u, u_exec = learner.act(one_hot(4, 1), noise=None)
        assert u[0] == pytest.approx(math.pi / 3.0, abs=1e-15)
        assert u_exec[0] == TURN_LIMIT
        assert u_exec[1] == 0.0

    def test_noise_added_per_channel(self):
        learner = FuzzyActorCritic(4, LearnerConfig(sigma=0.1))
        u, u_exec = learner.act(one_hot(4, 0), noise=noise_stream(np.random.default_rng(11)))
        assert np.array_equal(u, np.zeros(2))
        assert u_exec[0] != 0.0 and u_exec[1] != 0.0
        assert np.all(np.abs(u_exec) <= TURN_LIMIT)
        # same seed, same draw
        u2, u_exec2 = learner.act(one_hot(4, 0), noise=noise_stream(np.random.default_rng(11)))
        assert np.array_equal(u_exec, u_exec2)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0])
    def test_stream_is_the_per_call_draws(self, sigma):
        # Three blocks' worth: each pair is what rng.normal(0.0, sigma, 2) gave, bit for
        # bit, on both sides of each block boundary.
        seed = 41
        noise, rng = noise_stream(np.random.default_rng(seed)), np.random.default_rng(seed)
        for _ in range(3 * NOISE_BLOCK // 2 + 1):
            pair = [0.0 + sigma * next(noise), 0.0 + sigma * next(noise)]
            assert bits(pair) == bits(rng.normal(0.0, sigma, 2))

    def test_takes_two_values_azimuth_first(self):
        learner = FuzzyActorCritic(4, LearnerConfig(sigma=0.5))
        noise = iter([0.25, -0.125, 7.0])
        assert learner.act(one_hot(4, 0), noise)[1] == (0.125, -0.0625)
        assert next(noise) == 7.0


class TestTDError:
    def test_zero_value_function(self):
        learner = FuzzyActorCritic(6, LearnerConfig())
        phi = np.full(6, 1.0 / 6.0)
        assert learner.td_error(phi, phi, 1.0, False) == 1.0

    def test_terminal_drops_successor(self):
        learner = FuzzyActorCritic(4, LearnerConfig())
        learner.critic[:] = 2.0
        phi = np.full(4, 0.25)
        assert learner.td_error(phi, None, 0.0, True) == -2.0

    def test_band_discount_substitution(self):
        learner = FuzzyActorCritic(2, LearnerConfig(gamma=0.95))
        learner.critic[:] = [0.5, 1.0]
        phi_t = one_hot(2, 0)
        phi_next = one_hot(2, 1)
        assert learner.td_error(phi_t, phi_next, 0.0, False) == pytest.approx(0.45, abs=1e-12)


class TestUpdates:
    def test_zero_td_no_change(self):
        learner = FuzzyActorCritic(8, LearnerConfig())
        phi = np.full(8, 1.0 / 8.0)
        learner.update_critic(phi, 0.0)
        learner.update_actor(phi, np.zeros(2), np.full(2, 0.3), 0.0)
        assert not learner.critic.any()
        assert not learner.actor.any()

    def test_zero_perturbation_no_actor_change(self):
        learner = FuzzyActorCritic(8, LearnerConfig())
        phi = np.full(8, 1.0 / 8.0)
        u = np.array([0.1, -0.2])
        learner.update_actor(phi, u, u.copy(), 5.0)
        assert not learner.actor.any()

    def test_actor_single_rule_increment(self):
        # alpha_a=0.001, delta=1, (u_exec - u)/sigma = 1, one-hot firing
        learner = FuzzyActorCritic(8, LearnerConfig(alpha_actor=0.001, sigma=0.1))
        phi = one_hot(8, 5)
        u = np.zeros(2)
        u_exec = np.array([0.1, 0.0])
        learner.update_actor(phi, u, u_exec, 1.0)
        assert learner.actor[0, 5] == pytest.approx(0.001, abs=1e-15)
        assert np.count_nonzero(learner.actor) == 1

    def test_critic_single_rule_increment(self):
        learner = FuzzyActorCritic(8, LearnerConfig(alpha_critic=0.05))
        learner.update_critic(one_hot(8, 2), 1.0)
        assert learner.critic[2] == 0.05
        assert np.count_nonzero(learner.critic) == 1

    def test_critic_uniform_firing(self):
        n = 10
        learner = FuzzyActorCritic(n, LearnerConfig(alpha_critic=0.05))
        phi = np.full(n, 1.0 / n)
        learner.update_critic(phi, 1.0)
        assert np.allclose(learner.critic, 0.05 * (1.0 / n), atol=1e-18)

    def test_critic_moves_value_in_td_direction(self):
        rng = np.random.default_rng(13)
        learner = FuzzyActorCritic(16, LearnerConfig())
        learner.critic[:] = rng.normal(size=16)
        phi = rng.random(16)
        phi /= phi.sum()
        before = critic_value(learner, phi)
        learner.update_critic(phi, 2.5)
        assert critic_value(learner, phi) > before

    def test_gradient_matches_finite_differences(self):
        # actor/critic sensitivities equal the firing strengths
        rb = build_rulebase(TrainConfig())
        rng = np.random.default_rng(17)
        learner = FuzzyActorCritic(rb.n_rules, LearnerConfig())
        eps = 1e-4
        for _ in range(10):
            x = (
                rng.uniform(0.0, 35.0),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.0, 35.0),
                rng.uniform(-math.pi, math.pi),
            )
            phi = rb.fire(x)
            learner.critic[:] = rng.normal(size=rb.n_rules)
            for l in rng.integers(0, rb.n_rules, size=8):
                saved = learner.critic[l]
                learner.critic[l] = saved + eps
                hi = critic_value(learner, phi)
                learner.critic[l] = saved - eps
                lo = critic_value(learner, phi)
                learner.critic[l] = saved
                assert (hi - lo) / (2.0 * eps) == pytest.approx(phi[l], abs=1e-6)


class TestConvergence:
    def test_single_rule_critic_converges_to_mean_reward(self):
        # degenerate one-rule system, no discounting, i.i.d. rewards
        config = LearnerConfig(gamma=0.0, alpha_critic=0.05, alpha_actor=0.001)
        learner = FuzzyActorCritic(1, config)
        phi = np.ones(1)
        rng = np.random.default_rng(19)
        for _ in range(10_000):
            r = rng.uniform(0.1, 0.5)  # mean 0.3
            delta = learner.td_error(phi, phi, r, False)
            learner.update_critic(phi, delta)
        assert critic_value(learner, phi) == pytest.approx(0.3, abs=0.05)

    def test_weight_trajectory_determinism(self):
        rb = build_rulebase(TrainConfig())

        def run():
            learner = FuzzyActorCritic(rb.n_rules, LearnerConfig())
            rng, noise = np.random.default_rng(23), noise_stream(np.random.default_rng(29))
            phi = rb.fire((12.0, 0.4, 20.0, -1.0))
            for _ in range(200):
                u, u_exec = learner.act(phi, noise)
                r = float(rng.normal())
                delta = learner.td_error(phi, phi, r, False)
                learner.update_critic(phi, delta)
                learner.update_actor(phi, u, u_exec, delta)
            return learner

        a, b = run(), run()
        assert np.array_equal(a.actor, b.actor)
        assert np.array_equal(a.critic, b.critic)


class TestStateDict:
    def test_round_trip(self):
        config = LearnerConfig(alpha_actor=0.002, alpha_critic=0.03, sigma=0.2)
        learner = FuzzyActorCritic(6, config)
        learner.actor += np.arange(12.0).reshape(2, 6)
        learner.critic += np.arange(6.0)
        state = json.loads(json.dumps(learner.state_dict()))
        assert set(state) == {"actor", "critic"}
        clone = FuzzyActorCritic(6, config)
        clone.load_state_dict(state)
        assert np.array_equal(clone.actor, learner.actor)
        assert np.array_equal(clone.critic, learner.critic)

    def test_shape_mismatch_rejected(self):
        learner = FuzzyActorCritic(6, LearnerConfig())
        for part, weights in (("actor", [[0.0] * 5] * 2), ("critic", [0.0] * 7)):
            state = dict(learner.state_dict(), **{part: weights})
            with pytest.raises(ValueError, match="do not match the layout"):
                learner.load_state_dict(state)
        assert learner.actor.shape == (2, 6) and learner.critic.shape == (6,)


class TestExtractInputs:
    def test_aligned(self):
        arena = build_arena(TrainConfig(), [])
        me = AgentState(position=(0.0, 0.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.1)
        other = AgentState(position=(5.0, 0.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.0)
        d, ang, d_obs, ang_obs = extract_inputs(me, other, nearest_obstacle(me.position, arena))
        assert d == 5.0
        assert ang == 0.0
        assert d_obs == 35.0
        assert ang_obs == 0.0

    def test_perpendicular(self):
        arena = build_arena(TrainConfig(), [])
        me = AgentState(position=(0.0, 0.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.1)
        other = AgentState(position=(0.0, 5.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.0)
        _, ang, _, _ = extract_inputs(me, other, nearest_obstacle(me.position, arena))
        assert ang == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_pythagorean_distance(self):
        arena = build_arena(TrainConfig(), [])
        me = AgentState(position=(0.0, 0.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.1)
        other = AgentState(position=(3.0, 4.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.0)
        d, _, _, _ = extract_inputs(me, other, nearest_obstacle(me.position, arena))
        assert d == 5.0

    def test_coincident_positions_angle_zero(self):
        arena = build_arena(TrainConfig(), [])
        me = AgentState(position=(2.0, 2.0, 2.0), alpha=0.3, theta=1.0, speed=1.1)
        other = AgentState(position=(2.0, 2.0, 2.0), alpha=0.0, theta=1.0, speed=1.0)
        _, ang, _, _ = extract_inputs(me, other, nearest_obstacle(me.position, arena))
        assert ang == 0.0

    def test_obstacle_features(self):
        arena = build_arena(TrainConfig(), [Obstacle(center=(3.0, 5.0, 2.0), radius=1.0)])
        me = AgentState(position=(3.0, 5.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.1)
        other = AgentState(position=(10.0, 5.0, 0.0), alpha=0.0, theta=math.pi / 2.0, speed=1.0)
        _, _, d_obs, ang_obs = extract_inputs(me, other, nearest_obstacle(me.position, arena))
        assert d_obs == pytest.approx(1.0, abs=1e-12)
        assert ang_obs == pytest.approx(math.pi / 2.0, abs=1e-12)  # obstacle straight up


# The heading_vector and max/min forms of extract_inputs, kept here as the
# reference for the inlined code in src/.
def reference_heading_offset(heading, dx, dy, dz, norm):
    cosine = (heading[0] * dx + heading[1] * dy + heading[2] * dz) / norm
    return math.acos(max(-1.0, min(1.0, cosine)))


def reference_extract_inputs(agent, opponent, nearest):
    ox, oy, oz = agent.position
    tx, ty, tz = opponent.position
    dx, dy, dz = tx - ox, ty - oy, tz - oz
    d_opponent = math.sqrt(dx * dx + dy * dy + dz * dz)
    heading = heading_vector(agent.alpha, agent.theta)
    if d_opponent < 1e-12:
        angle_opponent = 0.0
    else:
        angle_opponent = reference_heading_offset(heading, dx, dy, dz, d_opponent)
    obstacle, d_obstacle = nearest
    if obstacle is None:
        angle_obstacle = 0.0
    else:
        bx, by, bz = obstacle.center
        vx, vy, vz = bx - ox, by - oy, bz - oz
        center_dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if center_dist < 1e-12:
            angle_obstacle = 0.0
        else:
            angle_obstacle = reference_heading_offset(heading, vx, vy, vz, center_dist)
    return (d_opponent, angle_opponent, d_obstacle, angle_obstacle)


COORDS = st.one_of(
    st.floats(-5.0, 40.0), st.sampled_from([0.0, -0.0, 35.0, math.nan, math.inf, -math.inf])
)
ANGLES = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, TURN_LIMIT, -TURN_LIMIT]),
)


@st.composite
def chase_states(draw):
    """(agent, opponent, nearest): opponent and obstacle anywhere, coincident, or on the heading."""
    position = tuple(draw(COORDS) for _ in range(3))
    me = AgentState(position, draw(ANGLES), draw(st.one_of(st.floats(0.0, math.pi), ANGLES)), 1.1)

    def point():
        kind = draw(st.sampled_from(["any", "same", "ahead", "behind", "near"]))
        if kind == "any":
            return tuple(draw(COORDS) for _ in range(3))
        if kind == "same":
            return position
        if kind == "near":  # within the coincidence tolerance, or just outside it
            return tuple(c + draw(st.sampled_from([0.0, 3e-13, 1e-12, -2e-12])) for c in position)
        # On the line of the heading, where the cosine can round past +-1.
        scale = draw(st.floats(0.1, 30.0)) * (1.0 if kind == "ahead" else -1.0)
        heading = heading_vector(me.alpha, me.theta)
        return tuple(c + scale * h for c, h in zip(position, heading))

    other = AgentState(point(), 0.0, math.pi / 2.0, 1.0)
    if draw(st.booleans()):
        nearest = (None, 35.0)
    else:
        nearest = (Obstacle(point(), 1.0), draw(st.one_of(st.floats(-1.0, 35.0), COORDS)))
    return me, other, nearest


class TestExtractInputsMatchesReference:
    """``extract_inputs`` is bit for bit its heading_vector and max/min form."""

    @settings(max_examples=1000, deadline=None)
    @given(case=chase_states())
    def test_bits(self, case):
        got = extract_inputs(*case)
        assert type(got) is tuple and len(got) == 4
        assert bits(got) == bits(reference_extract_inputs(*case))

    @pytest.mark.parametrize("alpha", [0.0, -0.0, TURN_LIMIT, -TURN_LIMIT, math.pi, math.nan])
    @pytest.mark.parametrize("scale", [1e-13, 1.0, 7.5, -7.5, math.inf])
    def test_on_the_heading_line(self, alpha, scale):
        me = AgentState((5.0, 6.0, 7.0), alpha, 1.0, 1.1)
        heading = heading_vector(alpha, 1.0)
        at = tuple(c + scale * h for c, h in zip(me.position, heading))
        case = (me, AgentState(at, 0.0, 0.0, 1.0), (Obstacle(at, 1.0), 2.0))
        assert bits(extract_inputs(*case)) == bits(reference_extract_inputs(*case))


# The numpy forms of the learner's per-step methods, kept here as references
# for the plain-float code in src/: the ``@`` product, numpy add and
# np.maximum/np.minimum in act, the broadcast outer product in update_actor,
# critic_value (another ``@``) twice in td_error.
def reference_act(learner, phi, rng):
    """``act`` in numpy, drawing its noise per call from Generator ``rng`` (as ``act`` once did)."""
    u = learner.actor @ phi
    if rng is not None:
        u_exec = u + rng.normal(0.0, learner.config.sigma, size=u.shape)
        np.maximum(u_exec, -learner.action_limit, out=u_exec)
    else:
        u_exec = np.maximum(u, -learner.action_limit)
    np.minimum(u_exec, learner.action_limit, out=u_exec)
    return u, u_exec


def reference_update_actor(learner, phi, u, u_exec, delta):
    config = learner.config
    scale = (config.alpha_actor * delta / config.sigma) * (u_exec - u)
    learner.actor += scale[:, None] * phi[None, :]


def reference_td_error(learner, phi_t, phi_next, reward, terminal):
    v_next = 0.0 if terminal else critic_value(learner, phi_next)
    return reward + learner.config.gamma * v_next - critic_value(learner, phi_t)


def noise_and_reference(seed):
    """A noise stream and a Generator that draws the same normals, both of ``seed``; or Nones."""
    if seed is None:
        return None, None
    return noise_stream(np.random.default_rng(seed)), np.random.default_rng(seed)


RULES = build_rulebase(TrainConfig())
LIMIT = FuzzyActorCritic.action_limit
PEAKS = [p.peaks for p in RULES.partitions]


def _input(peaks):
    """An input anywhere around its domain, or exactly on a peak (a one-hot firing there)."""
    return st.one_of(st.floats(peaks[0] - 5.0, peaks[-1] + 5.0), st.sampled_from(peaks))


FIRINGS = st.one_of(
    st.tuples(*map(_input, PEAKS)).map(RULES.fire),
    # Dense firings: every weight takes part in the dot products.
    st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).dirichlet(np.ones(RULES.n_rules))
    ),
)


@st.composite
def learners(draw):
    """A learner with random weights; large scales saturate either side, one weight may be NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = LearnerConfig(sigma=draw(st.sampled_from([0.01, 0.1, 1.0, 3.0])))
    learner = FuzzyActorCritic(RULES.n_rules, config)
    actor_scale = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    learner.actor[:] = actor_scale * rng.normal(size=learner.actor.shape)
    learner.critic[:] = draw(st.sampled_from([0.0, 1.0, 100.0])) * rng.normal(size=RULES.n_rules)
    pinned = draw(st.sampled_from([None, LIMIT, -LIMIT, 2.0, -2.0, math.nan]))
    if pinned is not None:  # one channel's whole row: its u is about the pin, or NaN
        learner.actor[draw(st.integers(0, 1)), :] = pinned
    return learner


class TestMatchesNumpyReference:
    """``act``, ``update_actor`` and ``td_error`` are bit for bit their numpy forms."""

    @settings(max_examples=300, deadline=None)
    @given(learner=learners(), phi=FIRINGS, seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_act(self, learner, phi, seed):
        noise, rng = noise_and_reference(seed)
        u, u_exec = learner.act(phi, noise)
        ref_u, ref_exec = reference_act(learner, phi, rng)
        assert isinstance(u, np.ndarray) and bits(u) == bits(ref_u)
        assert type(u_exec) is tuple and [type(v) for v in u_exec] == [float, float]
        assert bits(u_exec) == bits(ref_exec)
        if seed is not None:  # both took the same stretch of the Generator's normals
            assert next(noise) == rng.standard_normal()

    @settings(max_examples=300, deadline=None)
    @given(
        learner=learners(),
        phi=FIRINGS,
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        delta=st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, -0.0])),
        limited=st.one_of(st.none(), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))),
    )
    def test_update_actor(self, learner, phi, seed, delta, limited):
        # The actor step sees the executed action, or the cone limiter's replacement.
        u, u_exec = learner.act(phi, noise_and_reference(seed)[0])
        if limited is not None:
            u_exec = limited
        before = learner.actor.copy()
        learner.update_actor(phi, u, u_exec, delta)
        reference = FuzzyActorCritic(RULES.n_rules, learner.config)
        reference.actor = before
        reference_update_actor(reference, phi, u, u_exec, delta)
        assert bits(learner.actor) == bits(reference.actor)

    @settings(max_examples=300, deadline=None)
    @given(
        learner=learners(),
        phi_t=FIRINGS,
        phi_next=FIRINGS,
        reward=st.floats(-1e3, 1e3),
        terminal=st.booleans(),
    )
    def test_td_error(self, learner, phi_t, phi_next, reward, terminal):
        delta = learner.td_error(phi_t, None if terminal else phi_next, reward, terminal)
        ref = reference_td_error(learner, phi_t, None if terminal else phi_next, reward, terminal)
        assert type(delta) is float and bits(delta) == bits(ref)

    @pytest.mark.parametrize("weight", [LIMIT, -LIMIT, 2.0, -2.0, math.nan, 0.0])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_one_hot_edges(self, weight, seed):
        # Exactly on the limit, beyond it on both sides, and NaN, through a one-hot firing.
        learner = FuzzyActorCritic(RULES.n_rules, LearnerConfig())
        phi = RULES.fire((0.0, 0.0, 35.0, math.pi))
        assert np.count_nonzero(phi) == 1
        learner.actor[:, np.flatnonzero(phi)] = [[weight], [-weight]]
        noise, rng = noise_and_reference(seed)
        u, u_exec = learner.act(phi, noise)
        ref_u, ref_exec = reference_act(learner, phi, rng)
        assert bits(u) == bits(ref_u) and bits(u_exec) == bits(ref_exec)
        if seed is None and not math.isnan(weight):
            assert u_exec == (max(-LIMIT, min(LIMIT, weight)), max(-LIMIT, min(LIMIT, -weight)))
        if math.isnan(weight):
            assert all(map(math.isnan, u_exec))

    @pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0, 0.0, LIMIT, -LIMIT])
    @pytest.mark.parametrize("weight", [0.0, -0.0, 1.0, -2.0])
    def test_products_with_special_values(self, special, weight):
        # The .dot products in src/ against ``@`` when the firing or a weight is
        # NaN, infinite or a signed zero.  0 * inf is NaN in both, and both warn
        # of an invalid value, so the warnings are silenced here.
        learner = FuzzyActorCritic(RULES.n_rules, LearnerConfig())
        phi = RULES.fire((10.0, 0.3, 20.0, -1.0))
        learner.actor[:] = weight
        learner.critic[:] = weight
        for where in ("phi", "weights"):
            if where == "phi":
                phi = phi.copy()
                phi[np.flatnonzero(phi)[:3]] = special
            else:
                learner.actor[1, 7] = learner.critic[7] = special
            with np.errstate(invalid="ignore"):
                u, u_exec = learner.act(phi, None)
                ref_u, ref_exec = reference_act(learner, phi, None)
                deltas = [learner.td_error(phi, phi, 0.5, t) for t in (False, True)]
                refs = [reference_td_error(learner, phi, phi, 0.5, t) for t in (False, True)]
            assert bits(u) == bits(ref_u) and bits(u_exec) == bits(ref_exec)
            assert bits(deltas) == bits(refs)
