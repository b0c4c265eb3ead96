import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peg3d.reward import EVADER, PURSUER, RewardConfig, total_reward

from floatbits import bits

CFG = RewardConfig()


# The three terms of total_reward, one formula each: the reference forms that
# total_reward, which computes them in one body, must match bit for bit.
def _check_role(role: str):
    if role not in (PURSUER, EVADER):
        raise ValueError(f"role must be one of {(PURSUER, EVADER)}, got {role!r}")


def repulsion_reward(d_prev: float, d_next: float, cfg: RewardConfig) -> float:
    """Reward for the change in signed surface distance to the nearest obstacle.

    Zero when the distance is unchanged, approaching 1 as the agent retreats,
    exponentially negative as it advances on the obstacle.  Same form for
    both roles.
    """
    return 1.0 - math.exp(-cfg.repulsion_coeff * (d_next - d_prev))


def attraction_reward(d_prev: float, d_next: float, role: str, cfg: RewardConfig) -> float:
    """Reward for the change in pursuer-evader separation.

    Positive for the pursuer when the gap shrinks; the evader gets the
    negated value.
    """
    _check_role(role)
    r = math.exp(-cfg.attraction_coeff * (d_next - d_prev)) - 1.0
    return r if role == PURSUER else -r


def success_reward(captured: bool, role: str, cfg: RewardConfig) -> float:
    """Terminal capture bonus: positive for the pursuer, negated for the evader."""
    _check_role(role)
    if not captured:
        return 0.0
    return cfg.success_coeff if role == PURSUER else -cfg.success_coeff


class TestConfig:
    def test_defaults(self):
        assert (CFG.repulsion_coeff, CFG.attraction_coeff, CFG.success_coeff) == (10.0, 5.0, 20.0)
        assert (CFG.repulsion_weight, CFG.attraction_weight) == (5.0, 10.0)

    def test_positive_coefficients_enforced(self):
        with pytest.raises(ValueError):
            RewardConfig(repulsion_coeff=0.0)
        with pytest.raises(ValueError):
            RewardConfig(attraction_weight=-1.0)


class TestRepulsion:
    def test_zero_change(self):
        assert repulsion_reward(4.0, 4.0, CFG) == 0.0

    def test_moving_away(self):
        # 1 - exp(-10 * 0.1), computed independently
        assert repulsion_reward(2.0, 2.1, CFG) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert repulsion_reward(2.0, 2.1, CFG) == pytest.approx(0.63212, abs=1e-5)

    def test_moving_closer_penalized_harder(self):
        r = repulsion_reward(2.0, 1.9, CFG)
        assert r == pytest.approx(1.0 - math.e, abs=1e-12)
        assert r == pytest.approx(-1.71828, abs=1e-5)
        assert abs(r) > repulsion_reward(2.0, 2.1, CFG)

    def test_bounded_above(self):
        # per-step distance changes are bounded by the step length
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d0 = rng.uniform(-2.0, 35.0)
            d1 = d0 + rng.uniform(-0.5, 0.5)
            assert repulsion_reward(d0, d1, CFG) < 1.0

    def test_strictly_increasing_in_distance_gain(self):
        deltas = np.linspace(-0.5, 0.5, 101)
        vals = [repulsion_reward(0.0, d, CFG) for d in deltas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAttraction:
    def test_zero_change_both_roles(self):
        assert attraction_reward(10.0, 10.0, PURSUER, CFG) == 0.0
        assert attraction_reward(10.0, 10.0, EVADER, CFG) == 0.0

    def test_closing_rewards_pursuer(self):
        r = attraction_reward(5.0, 4.9, PURSUER, CFG)
        assert r == pytest.approx(math.exp(0.5) - 1.0, abs=1e-12)
        assert r == pytest.approx(0.64872, abs=1e-5)

    def test_evader_sign_inverted(self):
        r_p = attraction_reward(5.0, 4.9, PURSUER, CFG)
        r_e = attraction_reward(5.0, 4.9, EVADER, CFG)
        assert r_e == -r_p

    def test_pursuer_reward_bounded_below(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d0 = rng.uniform(0.0, 50.0)
            d1 = d0 + rng.uniform(-0.5, 0.5)
            assert attraction_reward(d0, d1, PURSUER, CFG) > -1.0

    def test_strictly_decreasing_in_separation_gain(self):
        deltas = np.linspace(-0.5, 0.5, 101)
        vals = [attraction_reward(0.0, d, PURSUER, CFG) for d in deltas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_sign_correctness(self):
        assert attraction_reward(5.0, 4.5, PURSUER, CFG) > 0.0
        assert repulsion_reward(5.0, 5.5, CFG) > 0.0

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            attraction_reward(1.0, 2.0, "referee", CFG)


class TestSuccess:
    def test_capture_bonus(self):
        assert success_reward(True, PURSUER, CFG) == 20.0
        assert success_reward(True, EVADER, CFG) == -20.0

    def test_no_capture(self):
        assert success_reward(False, PURSUER, CFG) == 0.0
        assert success_reward(False, EVADER, CFG) == 0.0


class TestTotal:
    def test_all_zero(self):
        assert total_reward(3.0, 3.0, 9.0, 9.0, False, PURSUER, CFG) == 0.0

    def test_weighted_combination(self):
        # 5 * (1 - e^-1) + 10 * (e^0.5 - 1), frozen from the closed forms
        r = total_reward(2.0, 2.1, 5.0, 4.9, False, PURSUER, CFG)
        expected = 5.0 * (1.0 - math.exp(-1.0)) + 10.0 * (math.exp(0.5) - 1.0)
        assert r == pytest.approx(expected, abs=1e-12)
        assert r == pytest.approx(9.64779, abs=1e-4)

    def test_capture_step_with_no_motion(self):
        assert total_reward(3.0, 3.0, 0.5, 0.5, True, PURSUER, CFG) == 20.0
        assert total_reward(3.0, 3.0, 0.5, 0.5, True, EVADER, CFG) == -20.0

    def test_attraction_and_success_are_zero_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d0 = rng.uniform(0.0, 35.0)
            d_opp = (d0, d0 + rng.uniform(-0.5, 0.5))
            o_p = rng.uniform(-1.0, 35.0)
            d_obs_p = (o_p, o_p + rng.uniform(-0.5, 0.5))
            o_e = rng.uniform(-1.0, 35.0)
            d_obs_e = (o_e, o_e + rng.uniform(-0.5, 0.5))
            captured = bool(rng.integers(0, 2))
            r_p = total_reward(*d_obs_p, *d_opp, captured, PURSUER, CFG)
            r_e = total_reward(*d_obs_e, *d_opp, captured, EVADER, CFG)
            chase_p = r_p - CFG.repulsion_weight * repulsion_reward(*d_obs_p, CFG)
            chase_e = r_e - CFG.repulsion_weight * repulsion_reward(*d_obs_e, CFG)
            assert chase_p == pytest.approx(-chase_e, abs=1e-9)

    def test_repulsion_not_inverted_for_evader(self):
        r_e = total_reward(2.0, 2.1, 5.0, 5.0, False, EVADER, CFG)
        assert r_e == pytest.approx(5.0 * (1.0 - math.exp(-1.0)), abs=1e-12)


def reference_total_reward(d_obs_prev, d_obs_next, d_opp_prev, d_opp_next, captured, role, cfg):
    """The weighted sum of the three reference terms, the reference for ``total_reward``."""
    return (
        cfg.repulsion_weight * repulsion_reward(d_obs_prev, d_obs_next, cfg)
        + cfg.attraction_weight * attraction_reward(d_opp_prev, d_opp_next, role, cfg)
        + success_reward(captured, role, cfg)
    )


# Finite distances keep every exponent below exp's overflow at these coefficients.
DISTANCES = st.one_of(
    st.floats(-5.0, 40.0),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
)
CONFIGS = st.sampled_from(
    [
        CFG,
        RewardConfig(repulsion_coeff=3.0, attraction_coeff=15.0, success_coeff=7.5),
        RewardConfig(repulsion_weight=0.25, attraction_weight=1e-3),
    ]
)


class TestTotalMatchesTerms:
    """``total_reward`` is bit for bit the weighted sum of the three reference terms."""

    @settings(max_examples=1000, deadline=None)
    @given(
        distances=st.tuples(DISTANCES, DISTANCES, DISTANCES, DISTANCES),
        captured=st.booleans(),
        role=st.sampled_from([PURSUER, EVADER]),
        cfg=CONFIGS,
    )
    def test_bits(self, distances, captured, role, cfg):
        got = total_reward(*distances, captured, role, cfg)
        assert type(got) is float
        assert bits(got) == bits(reference_total_reward(*distances, captured, role, cfg))

    @pytest.mark.parametrize("role", [PURSUER, EVADER])
    @pytest.mark.parametrize("captured", [False, True])
    def test_signed_zero_sums(self, role, captured):
        # A step with no change sums to +0.0 without capture, as the reference does.
        for d in (0.0, -0.0, 3.0):
            got = total_reward(d, d, d, d, captured, role, CFG)
            assert bits(got) == bits(reference_total_reward(d, d, d, d, captured, role, CFG))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role must be one of"):
            total_reward(1.0, 1.0, 1.0, 1.0, True, "referee", CFG)
