"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints one summary line; run with ``pytest -v -rA`` to see the per
criterion pass/fail lines.  Criterion 7 (full training protocol) consumes the
session-scoped ``trained_protocol`` fixture from conftest.
"""

import math
import time

import numpy as np
import pytest

from peg3d.env import AgentState, heading_vector, step_agent
from peg3d.fuzzy import uniform_partition
from peg3d.geometry import (
    BOUNDARY,
    EVADER_DOMINANT,
    apollonius_sphere,
    dominance,
    pursuit_cone_halfangle,
    pursuit_offset_angle,
)
from peg3d.learner import FuzzyActorCritic, LearnerConfig
from peg3d.reward import RewardConfig
from peg3d.scenarios import TrainConfig, build_arena, builtin_scenarios
from peg3d.training import build_rulebase, train
from test_fuzzy import memberships
from test_learner import critic_value


def test_criterion_1_geometry_oracle():
    """1000 random sphere constructions keep the distance ratio; dominance
    matches brute-force time-to-reach; all inside 5 seconds."""
    t0 = time.time()
    rng = np.random.default_rng(101)

    # ratio property on sampled surface points
    worst_ratio_err = 0.0
    for _ in range(1000):
        p = rng.uniform(-20.0, 20.0, size=3)
        e = rng.uniform(-20.0, 20.0, size=3)
        while np.linalg.norm(p - e) < 1e-3:
            e = rng.uniform(-20.0, 20.0, size=3)
        a = rng.uniform(0.1, 0.95)
        sphere = apollonius_sphere(p, e, a)
        dirs = rng.normal(size=(5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = sphere.center + sphere.radius * dirs
        ratio = np.linalg.norm(pts - e, axis=1) / np.linalg.norm(pts - p, axis=1)
        worst_ratio_err = max(worst_ratio_err, float(np.max(np.abs(ratio - a))))
    assert worst_ratio_err < 1e-9

    # dominance agrees with earliest-arrival classification
    mismatches = 0
    checked = 0
    for _ in range(10):
        p = rng.uniform(-15.0, 15.0, size=3)
        e = rng.uniform(-15.0, 15.0, size=3)
        if np.linalg.norm(p - e) < 1e-3:
            continue
        a = rng.uniform(0.2, 0.9)
        v_p = 1.0
        v_e = a * v_p
        sphere = apollonius_sphere(p, e, a)
        for x in rng.uniform(-40.0, 40.0, size=(100, 3)):
            tag = dominance(x, sphere, a)
            if tag == BOUNDARY:
                continue
            checked += 1
            evader_first = np.linalg.norm(x - e) / v_e < np.linalg.norm(x - p) / v_p
            if evader_first != (tag == EVADER_DOMINANT):
                mismatches += 1
    elapsed = time.time() - t0
    assert checked >= 900
    assert mismatches == 0
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: ratio err {worst_ratio_err:.2e}, "
        f"{checked} dominance points, 0 mismatches, {elapsed:.2f}s"
    )


def test_criterion_2_locus_fit_reproduction():
    """Closed-form sphere matches a least-squares fit of 10^4 brute-force
    ratio-locus points within 1e-6 m."""
    p = np.array([10.0, 10.0, 10.0])
    e = np.array([-10.0, -10.0, 10.0])
    a = 0.5

    rng = np.random.default_rng(202)
    dirs = rng.normal(size=(10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    # bisection along rays from the evader: f < 0 at the evader, > 0 far out
    def f(ts):
        pts = e + ts[:, None] * dirs
        return np.linalg.norm(pts - e, axis=1) - a * np.linalg.norm(pts - p, axis=1)

    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), 1.0)
    while True:
        mask = f(hi) < 0.0
        if not mask.any():
            break
        hi[mask] *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0.0
        lo[neg] = mid[neg]
        hi[~neg] = mid[~neg]
    pts = e + (0.5 * (lo + hi))[:, None] * dirs

    # algebraic least-squares sphere fit through the locus points
    A = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = (pts**2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center_fit = sol[:3]
    radius_fit = math.sqrt(sol[3] + center_fit @ center_fit)

    sphere = apollonius_sphere(p, e, a)
    center_err = float(np.max(np.abs(sphere.center - center_fit)))
    radius_err = abs(sphere.radius - radius_fit)
    assert center_err < 1e-6
    assert radius_err < 1e-6
    print(f"criterion 2 PASS: center err {center_err:.2e} m, radius err {radius_err:.2e} m")


def test_criterion_3_cone_angles():
    """Half-angle equals asin(1/1.1) to 1e-12; offset angle is maximized at a
    right-angle evader ray over a 10^4-point grid."""
    err = abs(pursuit_cone_halfangle(1.1, 1.0) - math.asin(1.0 / 1.1))
    assert err <= 1e-12

    grid = np.linspace(0.0, math.pi, 10_001)
    vals = np.asarray([pursuit_offset_angle(t, 1.1, 1.0) for t in grid])
    peak = pursuit_offset_angle(math.pi / 2.0, 1.1, 1.0)
    assert peak >= vals.max() - 1e-15
    assert abs(grid[int(vals.argmax())] - math.pi / 2.0) <= math.pi / 10_000
    print(f"criterion 3 PASS: halfangle err {err:.1e}, grid max at {grid[int(vals.argmax())]:.6f}")


def test_criterion_4_partition_of_unity():
    """Memberships sum to 1 within 1e-12; firing vectors sum to 1 within 1e-9."""
    rng = np.random.default_rng(404)
    worst_mf = 0.0
    for lo, hi in ((0.0, 35.0), (-math.pi, math.pi)):
        part = uniform_partition(lo, hi, 5)
        for x in rng.uniform(lo, hi, size=10_000):
            worst_mf = max(worst_mf, abs(memberships(part, x).sum() - 1.0))
    assert worst_mf <= 1e-12

    rb = build_rulebase(TrainConfig())
    worst_fire = 0.0
    for _ in range(10_000):
        x = (
            rng.uniform(-5.0, 40.0),
            rng.uniform(-4.0, 4.0),
            rng.uniform(-5.0, 40.0),
            rng.uniform(-4.0, 4.0),
        )
        worst_fire = max(worst_fire, abs(rb.fire(x).sum() - 1.0))
    assert worst_fire <= 1e-9
    print(f"criterion 4 PASS: membership err {worst_mf:.1e}, firing err {worst_fire:.1e}")


def test_criterion_5_gradient_check():
    """Analytic update sensitivities equal central finite differences of the
    inferred outputs at 1e-6, across 100 random states."""
    rb = build_rulebase(TrainConfig())
    rng = np.random.default_rng(505)
    eps = 1e-4
    eye = np.eye(rb.n_rules)
    worst = 0.0
    for _ in range(100):
        x = (
            rng.uniform(0.0, 35.0),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.0, 35.0),
            rng.uniform(-math.pi, math.pi),
        )
        phi = rb.fire(x)
        w = rng.normal(size=rb.n_rules)
        fd = ((w + eps * eye) @ phi - (w - eps * eye) @ phi) / (2.0 * eps)
        worst = max(worst, float(np.max(np.abs(fd - phi))))
    assert worst <= 1e-6
    print(f"criterion 5 PASS: max |finite-difference - firing| = {worst:.2e}")


def test_criterion_6_critic_convergence():
    """Single-rule critic with no discounting converges to the mean reward."""
    learner = FuzzyActorCritic(1, LearnerConfig(gamma=0.0, alpha_actor=0.001, alpha_critic=0.05))
    phi = np.ones(1)
    rng = np.random.default_rng(606)
    for _ in range(10_000):
        reward = float(rng.uniform(0.1, 0.5))  # mean 0.3
        delta = learner.td_error(phi, phi, reward, False)
        learner.update_critic(phi, delta)
    value = critic_value(learner, phi)
    assert value == pytest.approx(0.3, abs=0.05)
    print(f"criterion 6 PASS: critic value {value:.4f} vs mean reward 0.3")


def test_criterion_7_end_to_end_training(trained_protocol):
    """Four scenarios, five master seeds, 200 episodes each: noise-free
    capture rate over 20 runs reaches 0.7 for at least 3 of 5 seeds; every
    capture closes within 1 m; episodes respect the 100 s budget; the whole
    protocol stays under 30 minutes."""
    results = trained_protocol["results"]
    seeds = trained_protocol["seeds"]

    # the protocol must run at the published hyperparameters
    config = results[(1, seeds[0])]["config"]
    assert config.reward == RewardConfig()
    lc = config.learner
    assert (lc.alpha_actor, lc.alpha_critic, lc.gamma, lc.sigma) == (0.001, 0.05, 0.95, 0.1)
    assert (config.pursuer_speed, config.evader_speed) == (1.1, 1.0)
    assert config.capture_distance == 1.0
    assert config.episodes == 200

    lines = []
    for number in (1, 2, 3, 4):
        rates = [results[(number, seed)]["metrics"]["capture_rate"] for seed in seeds]
        good = sum(1 for r in rates if r >= 0.7)
        lines.append(f"scenario {number}: rates {rates} -> {good}/5 seeds >= 0.7")
        assert good >= 3, f"scenario {number}: only {good}/5 seeds reached 0.7 capture rate"
        for seed in seeds:
            for row in results[(number, seed)]["rows"]:
                assert row["outcome"] in ("captured", "timeout")
                assert row["elapsed"] <= config.max_plays * config.dt + 1e-9
                if row["outcome"] == "captured":
                    assert row["final_distance"] <= config.capture_distance + 1e-12

    assert trained_protocol["wall_seconds"] <= 1800.0
    for line in lines:
        print(f"criterion 7 PASS: {line}")
    print(f"criterion 7 PASS: protocol wall time {trained_protocol['wall_seconds']:.0f}s <= 1800s")


def test_criterion_8_deterministic_exports(tmp_path):
    """Identical seed and config produce byte-identical episode summaries."""
    scenario = builtin_scenarios()[1]
    config = TrainConfig(episodes=3, max_plays=60, seed=33)
    train(scenario, config, out_dir=tmp_path / "a")
    train(scenario, config, out_dir=tmp_path / "b")
    compared = []
    for name in ("episodes.csv", "manifest.json", "checkpoint.json", "episode_final.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    print(f"criterion 8 PASS: byte-identical {', '.join(compared)}")


def test_criterion_9_kinematics():
    """Displacement magnitude equals speed*dt within 1e-12 over 10^4 random
    steps; direction vectors are unit length throughout."""
    arena = build_arena(TrainConfig(), [])
    rng = np.random.default_rng(909)
    worst_step = 0.0
    worst_norm = 0.0
    for _ in range(10_000):
        state = AgentState(
            position=tuple(rng.uniform(1.0, 19.0, size=3)),
            alpha=rng.uniform(-math.pi, math.pi),
            theta=rng.uniform(0.0, math.pi),
            speed=rng.uniform(0.1, 1.1),
        )
        dalpha, dtheta = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        dt = rng.uniform(0.01, 0.2)
        moved = step_agent(state, dalpha, dtheta, dt, arena)
        step_len = math.dist(moved.position, state.position)
        worst_step = max(worst_step, abs(step_len - state.speed * dt))
        h = heading_vector(moved.alpha, moved.theta)
        worst_norm = max(worst_norm, abs(math.hypot(*h) - 1.0))
    assert worst_step <= 1e-12
    assert worst_norm <= 1e-12
    print(f"criterion 9 PASS: step err {worst_step:.1e}, heading norm err {worst_norm:.1e}")
