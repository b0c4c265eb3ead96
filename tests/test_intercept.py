"""The simulator against the closed-form 3D Apollonius intercept.

Zero-weight agents with no noise and no cone limit fly straight along their
start headings.  The evader takes a random heading; the pursuer heads for the
point I where both arrive together, which lies on their Apollonius sphere.
Then the separation closes linearly in time, so the first time t_c that it
reaches the capture distance has a closed form, and a simulation stepping at
``dt`` must capture at the first step at or after it: in [t_c, t_c + dt).
"""

import math

import numpy as np
import pytest

from peg3d.env import CAPTURED, heading_vector
from peg3d.geometry import apollonius_sphere
from peg3d.scenarios import Scenario, TrainConfig
from peg3d.training import build_learners, build_rulebase, run_episode

V_P, V_E, CAPTURE = 1.1, 1.0, 1.0


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _heading(direction) -> tuple[float, float]:
    """(alpha, theta) of a unit direction."""
    return math.atan2(direction[1], direction[0]), math.acos(max(-1.0, min(1.0, direction[2])))


def _meeting_time(d, h_e) -> float:
    """Positive root T of |d + V_E T h_e| = V_P T, with d = E - P and h_e a unit vector."""
    a = V_P * V_P - V_E * V_E
    b = V_E * _dot(d, h_e)
    return (b + math.sqrt(b * b + a * _dot(d, d))) / a


def _first_contact(d, w) -> float:
    """Smaller root t of |d + w t| = CAPTURE: when the separation first reaches it."""
    a, b, c = _dot(w, w), _dot(d, w), _dot(d, d) - CAPTURE * CAPTURE
    return (-b - math.sqrt(b * b - a * c)) / a


def _starts():
    """(separation offset E - P, evader heading, dt) for each seeded start."""
    cases = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        offset = rng.uniform(5.0, 30.0) * direction / math.hypot(*direction)
        alpha_e, theta_e = rng.uniform(-math.pi, math.pi), math.acos(rng.uniform(-1.0, 1.0))
        dt = {7: 0.05, 17: 0.05, 27: 0.01, 37: 0.01}.get(seed, 0.1)
        cases.append(pytest.param(tuple(offset.tolist()), (alpha_e, theta_e), dt, id=f"seed{seed}"))
    # Random separations never equal the capture distance at a step; this one
    # does at step 0, so it tells `<=` from `<` in the capture test.
    cases.append(pytest.param((CAPTURE, 0.0, 0.0), (0.5, 1.0), 0.1, id="in-contact"))
    return cases


@pytest.mark.parametrize("offset, evader_heading, dt", _starts())
def test_straight_flight_captures_at_the_closed_form_time(offset, evader_heading, dt):
    h_e = heading_vector(*evader_heading)
    meet = _meeting_time(offset, h_e)
    # Midpoint of the starts at the box centre: I and both paths lie within V_P T of it.
    half = V_P * meet + 5.0
    p = tuple(half - 0.5 * c for c in offset)
    e = tuple(pc + c for pc, c in zip(p, offset))
    meeting_point = tuple(ec + V_E * meet * hc for ec, hc in zip(e, h_e))
    sphere = apollonius_sphere(p, e, V_E / V_P)
    assert abs(math.dist(meeting_point, sphere.center) - sphere.radius) < 1e-9

    to_meet = tuple(ic - pc for ic, pc in zip(meeting_point, p))
    pursuer_heading = _heading(tuple(c / math.dist(meeting_point, p) for c in to_meet))
    h_p = heading_vector(*pursuer_heading)
    closing = tuple(V_E * ec - V_P * pc for ec, pc in zip(h_e, h_p))
    t_c = _first_contact(offset, closing)

    scenario = Scenario(
        pursuer_start=p,
        evader_start=e,
        obstacles=(),
        pursuer_heading=pursuer_heading,
        evader_heading=evader_heading,
    )
    config = TrainConfig(
        dt=dt,
        max_plays=math.ceil(meet / dt) + 10,
        arena_extents=(2.0 * half,) * 3,
        capture_distance=CAPTURE,
        pursuer_speed=V_P,
        evader_speed=V_E,
        cone_constraint=False,
    )
    rulebase = build_rulebase(config)
    learners = build_learners(config, rulebase.n_rules)
    log = run_episode(scenario, config, [], rulebase, learners, None)
    assert log.outcome == CAPTURED
    assert t_c <= log.capture_time < t_c + dt, (log.capture_time, t_c, dt)
