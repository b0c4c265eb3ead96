import configparser
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peg3d.env import heading_vector
from peg3d.learner import LearnerConfig
from peg3d.reward import RewardConfig
from peg3d.scenarios import (
    CONFIG_SCHEMA,
    INI_SECTIONS,
    Scenario,
    TrainConfig,
    builtin_scenarios,
    check_scenario,
    initial_states,
    load_config,
    place_obstacles,
    realize_obstacles,
    scenario_from_dict,
    train_config_from_dict,
)

STARTS = {"pursuer_start": [5, 30, 0], "evader_start": [5, 5, 0]}

# The accepted INI keys, written out as the reference for the loader's table.
ACCEPTED_KEYS = {
    "config": {"schema"},
    "train": {"episodes", "max_plays", "seed", "freeze", "log_steps"},
    "arena": {"extents", "dt", "capture_distance", "max_time", "sensing_range"},
    "agents": {"pursuer_speed", "evader_speed", "cone_constraint"},
    "learner": {"alpha_actor", "alpha_critic", "gamma", "sigma", "mfs_per_input"},
    "reward": {
        "repulsion_coeff",
        "attraction_coeff",
        "success_coeff",
        "repulsion_weight",
        "attraction_weight",
    },
    "scenario": {
        "name",
        "pursuer_start",
        "evader_start",
        "obstacles",
        "obstacle_count",
        "obstacle_radius",
        "obstacle_margin",
        "pursuer_heading",
        "evader_heading",
    },
}

_positive = st.floats(0.01, 1000.0)
_coordinate = st.floats(0.0, 40.0)
_angle = st.floats(-math.pi, math.pi)
_obstacle_row = st.tuples(_coordinate, _coordinate, _coordinate, st.floats(0.1, 5.0))

# A valid value for every accepted key, as the loaded config should hold it.
VALID_VALUES = {
    ("config", "schema"): st.just(CONFIG_SCHEMA),
    ("train", "episodes"): st.integers(1, 10**6),
    ("train", "max_plays"): st.integers(1, 10**6),
    ("train", "seed"): st.integers(0, 2**32),
    ("train", "freeze"): st.sampled_from(["none", "pursuer", "evader"]),
    ("train", "log_steps"): st.sampled_from(["none", "final", "all"]),
    ("arena", "extents"): st.tuples(_positive, _positive, _positive),
    ("arena", "dt"): _positive,
    ("arena", "capture_distance"): _positive,
    ("arena", "max_time"): _positive,
    ("arena", "sensing_range"): _positive,
    ("agents", "pursuer_speed"): _positive,
    ("agents", "evader_speed"): _positive,
    ("agents", "cone_constraint"): st.booleans(),
    ("learner", "alpha_actor"): st.floats(1e-6, 0.01),
    ("learner", "alpha_critic"): st.floats(0.02, 1.0),
    ("learner", "gamma"): st.floats(0.0, 0.99),
    ("learner", "sigma"): _positive,
    ("learner", "mfs_per_input"): st.integers(2, 9),
    **{("reward", key): _positive for key in ACCEPTED_KEYS["reward"]},
    ("scenario", "name"): st.text("abcxyz0123-_", min_size=1, max_size=12),
    ("scenario", "pursuer_start"): st.tuples(_coordinate, _coordinate, _coordinate),
    ("scenario", "evader_start"): st.tuples(_coordinate, _coordinate, _coordinate),
    ("scenario", "obstacles"): st.lists(_obstacle_row, max_size=3).map(tuple),
    ("scenario", "obstacle_count"): st.integers(0, 10),
    ("scenario", "obstacle_radius"): _positive,
    ("scenario", "obstacle_margin"): _positive,
    ("scenario", "pursuer_heading"): st.tuples(_angle, _angle),
    ("scenario", "evader_heading"): st.tuples(_angle, _angle),
}


def _ini_text(value) -> str:
    """INI spelling of a value: floats as repr, tuples space-separated, rows by ';'."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return " ; ".join(_ini_text(row) for row in value)
        return " ".join(map(repr, value))
    return str(value) if isinstance(value, (int, str)) else repr(value)



class TestBuiltinScenarios:
    def test_four_standard_start_pairs(self):
        sc = builtin_scenarios()
        assert sorted(sc) == [1, 2, 3, 4]
        assert sc[1].pursuer_start == (5.0, 30.0, 0.0)
        assert sc[1].evader_start == (5.0, 5.0, 0.0)
        assert sc[2].pursuer_start == (5.0, 5.0, 0.0)
        assert sc[2].evader_start == (30.0, 30.0, 0.0)
        assert sc[3].pursuer_start == (30.0, 30.0, 0.0)
        assert sc[3].evader_start == (30.0, 5.0, 0.0)
        # the fourth pair reuses the third pursuer start
        assert sc[4].pursuer_start == (30.0, 30.0, 0.0)
        assert sc[4].evader_start == (5.0, 30.0, 0.0)

    def test_defaults(self):
        sc = builtin_scenarios()[1]
        assert sc.obstacles is None
        assert sc.obstacle_count == 3
        assert sc.obstacle_radius == 1.0


class TestTrainConfigDefaults:
    def test_experiment_constants(self):
        cfg = TrainConfig()
        assert cfg.episodes == 200
        assert cfg.dt == 0.1
        assert cfg.capture_distance == 1.0
        assert cfg.max_time == 100.0
        assert (cfg.pursuer_speed, cfg.evader_speed) == (1.1, 1.0)
        assert cfg.arena_extents == (35.0, 35.0, 20.0)
        lc = cfg.learner
        assert (lc.alpha_actor, lc.alpha_critic, lc.gamma, lc.sigma) == (0.001, 0.05, 0.95, 0.1)
        assert lc.mfs_per_input == 5
        assert cfg.reward == RewardConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(episodes=0)
        with pytest.raises(ValueError):
            TrainConfig(max_plays=0)
        with pytest.raises(ValueError):
            TrainConfig(freeze="both")
        with pytest.raises(ValueError):
            TrainConfig(log_steps="sometimes")

    def test_round_trip_through_dict(self):
        cfg = TrainConfig(seed=9, episodes=50, freeze="evader", cone_constraint=False)
        clone = train_config_from_dict(cfg.to_dict())
        assert clone == cfg
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.seed = 1

    @pytest.mark.parametrize("name", ["pursuer_speed", "evader_speed"])
    @pytest.mark.parametrize("speed", [0.0, -1.0, math.nan])
    def test_speeds_must_be_positive(self, name, speed):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            TrainConfig(**{name: speed})

    def test_round_trip_fills_missing_keys_with_defaults(self):
        assert train_config_from_dict({"seed": 4}) == TrainConfig(seed=4)
        sc = scenario_from_dict({"pursuer_start": [1, 2, 3], "evader_start": [4, 5, 6]})
        assert sc == Scenario(pursuer_start=(1, 2, 3), evader_start=(4, 5, 6))
        assert sc.name == "custom"

    def test_unknown_keys_named(self):
        with pytest.raises(ValueError, match="^unknown TrainConfig key 'bogus'$"):
            train_config_from_dict({"seed": 4, "bogus": 1})
        for part, cls in (("learner", "LearnerConfig"), ("reward", "RewardConfig")):
            with pytest.raises(ValueError, match=f"^unknown {cls} key 'bogus', 'extra'$"):
                train_config_from_dict({part: {"extra": 2, "bogus": 1}})
        with pytest.raises(ValueError, match="^unknown Scenario key 'bogus'$"):
            scenario_from_dict({"pursuer_start": [1, 2, 3], "evader_start": [4, 5, 6], "bogus": 1})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"cone_constraint": "on"}, "TrainConfig key 'cone_constraint' must be bool, got 'on'"),
            ({"seed": 1.5}, "TrainConfig key 'seed' must be int, got 1.5"),
            ({"seed": True}, "TrainConfig key 'seed' must be int, got True"),
            ({"dt": "0.1"}, "TrainConfig key 'dt' must be float, got '0.1'"),
            ({"arena_extents": [35, "35", 20]}, "TrainConfig key 'arena_extents' must be "),
            ({"learner": 5}, "LearnerConfig must be a JSON object, got 5"),
            ({"learner": {"angle_domain": None}}, "LearnerConfig key 'angle_domain' must be "),
            (
                {"learner": {"distance_domain": [0, 35, 1]}},
                "LearnerConfig key 'distance_domain' must be tuple[float, float], got (0, 35, 1)",
            ),
            ({"reward": {"success_coeff": None}}, "RewardConfig key 'success_coeff' must be float"),
            ([], "TrainConfig must be a JSON object, got ()"),
        ],
    )
    def test_wrong_types_named(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            train_config_from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"pursuer_start": [1, 2, 3]}, "missing Scenario key 'evader_start'"),
            ({}, "missing Scenario key 'pursuer_start', 'evader_start'"),
            ({**STARTS, "obstacles": [[1, 2, 3]]}, "Scenario key 'obstacles' must be "),
            ({**STARTS, "pursuer_heading": "up"}, "Scenario key 'pursuer_heading' must be "),
            ({**STARTS, "obstacle_count": 2.0}, "Scenario key 'obstacle_count' must be int"),
        ],
    )
    def test_scenario_missing_or_mistyped_keys_named(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            scenario_from_dict(data)


class TestCheckScenario:
    def test_builtin_scenarios_pass(self):
        for sc in builtin_scenarios().values():
            check_scenario(sc, TrainConfig())

    def test_starts_on_the_box_faces_pass(self):
        sc = Scenario(pursuer_start=(0.0, 0.0, 0.0), evader_start=(35.0, 35.0, 20.0))
        check_scenario(sc, TrainConfig())

    @pytest.mark.parametrize(
        "start",
        [(50.0, 50.0, 50.0), (5.0, 5.0, -0.1), (5.0, 35.5, 0.0), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0)],
    )
    def test_start_outside_the_box_or_not_three_floats_rejected(self, start):
        sc = Scenario(pursuer_start=(5.0, 30.0, 0.0), evader_start=start)
        with pytest.raises(ValueError, match="evader_start must be 3 floats in the arena"):
            check_scenario(sc, TrainConfig())

    def test_start_checked_against_the_configured_box(self):
        sc = Scenario(pursuer_start=(30.0, 30.0, 30.0), evader_start=(5.0, 5.0, 0.0))
        check_scenario(sc, TrainConfig(arena_extents=(40.0, 40.0, 40.0)))
        with pytest.raises(ValueError, match="pursuer_start"):
            check_scenario(sc, TrainConfig())

    def test_start_inside_explicit_obstacle_rejected(self):
        sc = Scenario(
            pursuer_start=(10.5, 10.0, 5.0),
            evader_start=(5.0, 5.0, 0.0),
            obstacles=((20.0, 20.0, 5.0, 1.0), (10.0, 10.0, 5.0, 1.0)),
        )
        with pytest.raises(ValueError, match="pursuer_start .* inside an obstacle"):
            check_scenario(sc, TrainConfig())
        # on the surface is outside
        check_scenario(dataclasses.replace(sc, pursuer_start=(11.0, 10.0, 5.0)), TrainConfig())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"obstacle_radius": 0.0}, "obstacle_radius must be > 0, got 0.0"),
            ({"obstacle_radius": math.nan}, "obstacle_radius must be > 0"),
            ({"obstacle_radius": 10.5}, "obstacle_radius 10.5 exceeds half the arena extents"),
        ],
    )
    def test_random_obstacle_fields_rejected(self, fields, message):
        sc = dataclasses.replace(builtin_scenarios()[1], **fields)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            check_scenario(sc, TrainConfig())
        # place_obstacles applies the same rule
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            realize_obstacles(sc, TrainConfig(), np.random.default_rng(0))

    def test_random_obstacle_fit_follows_the_configured_box(self):
        sc = dataclasses.replace(builtin_scenarios()[1], obstacle_radius=10.0)
        check_scenario(sc, TrainConfig())  # 2 * 10 = 20, the height of the box
        with pytest.raises(ValueError, match="exceeds half the arena extents"):
            check_scenario(sc, TrainConfig(arena_extents=(35.0, 35.0, 19.0)))
        # random-obstacle fields are not read when no obstacles are drawn
        for fields in ({"obstacle_count": 0}, {"obstacles": ()}):
            check_scenario(dataclasses.replace(sc, obstacle_radius=-1.0, **fields), TrainConfig())

    @pytest.mark.parametrize("heading", [(1.0,), (1.0, 2.0, 3.0)])
    def test_heading_must_be_two_floats(self, heading):
        sc = dataclasses.replace(builtin_scenarios()[1], evader_heading=heading)
        with pytest.raises(ValueError, match=r"evader_heading must be 2 floats \(alpha theta\)"):
            check_scenario(sc, TrainConfig())
        check_scenario(dataclasses.replace(sc, evader_heading=(1.0, 2.0)), TrainConfig())
        check_scenario(dataclasses.replace(sc, evader_heading=()), TrainConfig())


class TestInitialStates:
    def test_chase_axis_headings(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig()
        p, e = initial_states(sc, cfg)
        assert p.position == (5.0, 30.0, 0.0)
        assert (p.speed, e.speed) == (1.1, 1.0)
        # pursuer faces the evader; the evader faces directly away
        axis = np.subtract(e.position, p.position)
        axis = axis / np.linalg.norm(axis)
        assert np.allclose(heading_vector(p.alpha, p.theta), axis, atol=1e-12)
        assert np.allclose(heading_vector(e.alpha, e.theta), axis, atol=1e-12)

    def test_explicit_headings_respected(self):
        sc = Scenario(
            name="fixed",
            pursuer_start=(5.0, 5.0, 5.0),
            evader_start=(20.0, 20.0, 5.0),
            pursuer_heading=(0.5, 1.0),
            evader_heading=(-0.5, 2.0),
        )
        p, e = initial_states(sc, TrainConfig())
        assert (p.alpha, p.theta) == (0.5, 1.0)
        assert (e.alpha, e.theta) == (-0.5, 2.0)

    def test_coincident_starts_fall_back(self):
        sc = Scenario(name="same", pursuer_start=(5.0, 5.0, 0.0), evader_start=(5.0, 5.0, 0.0))
        p, _ = initial_states(sc, TrainConfig())
        assert (p.alpha, p.theta) == (0.0, math.pi / 2.0)


class TestObstaclePlacement:
    def test_count_margin_and_bounds(self):
        rng = np.random.default_rng(13)
        starts = [(5.0, 30.0, 0.0), (5.0, 5.0, 0.0)]
        obstacles = place_obstacles(rng, (35.0, 35.0, 20.0), 5, 1.0, starts, margin=3.0)
        assert len(obstacles) == 5
        for obs in obstacles:
            for c, hi in zip(obs.center, (35.0, 35.0, 20.0)):
                assert obs.radius <= c <= hi - obs.radius
            for s in starts:
                assert math.dist(obs.center, s) - obs.radius >= 3.0

    def test_deterministic_given_stream(self):
        a = place_obstacles(np.random.default_rng(7), (35.0, 35.0, 20.0), 3, 1.0, [(5, 5, 0)])
        b = place_obstacles(np.random.default_rng(7), (35.0, 35.0, 20.0), 3, 1.0, [(5, 5, 0)])
        assert [o.center for o in a] == [o.center for o in b]

    def test_impossible_radius_rejected(self):
        with pytest.raises(ValueError):
            place_obstacles(np.random.default_rng(1), (35.0, 35.0, 20.0), 1, 11.0, [])

    def test_unplaceable_layout_raises(self):
        # margin larger than the arena diagonal: every draw is rejected
        message = "no obstacle of radius 1.0 clears the starts by obstacle_margin 60.0 in 50 draws"
        with pytest.raises(ValueError, match=f"^{message}$"):
            place_obstacles(
                np.random.default_rng(1),
                (35.0, 35.0, 20.0),
                1,
                1.0,
                [(17.5, 17.5, 10.0)],
                margin=60.0,
                max_attempts=50,
            )

    def test_realize_explicit_list(self):
        sc = Scenario(
            name="explicit",
            pursuer_start=(5.0, 30.0, 0.0),
            evader_start=(5.0, 5.0, 0.0),
            obstacles=((10.0, 10.0, 5.0, 1.0), (20.0, 25.0, 3.0, 2.0)),
        )
        obstacles = realize_obstacles(sc, TrainConfig(), rng=None)
        assert [o.center for o in obstacles] == [(10.0, 10.0, 5.0), (20.0, 25.0, 3.0)]
        assert [o.radius for o in obstacles] == [1.0, 2.0]

    def test_realize_random_requires_rng(self):
        sc = builtin_scenarios()[1]
        with pytest.raises(ValueError):
            realize_obstacles(sc, TrainConfig(), rng=None)

    def test_scenario_round_trip_through_dict(self):
        sc = Scenario(
            name="rt",
            pursuer_start=(1.0, 2.0, 3.0),
            evader_start=(4.0, 5.0, 6.0),
            obstacles=((10.0, 10.0, 5.0, 1.0),),
            pursuer_heading=(0.1, 1.2),
        )
        assert scenario_from_dict(sc.to_dict()) == sc


class TestConfigFile:
    def test_overrides_and_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            """
[config]
schema = peg3d.config.v1

[train]
episodes = 20
seed = 5
freeze = evader

[arena]
dt = 0.2
extents = 40 40 25

[agents]
pursuer_speed = 1.3
cone_constraint = false

[learner]
alpha_actor = 0.002

[reward]
success_coeff = 15
"""
        )
        cfg, scenario = load_config(path)
        assert scenario is None
        assert cfg.episodes == 20
        assert cfg.seed == 5
        assert cfg.freeze == "evader"
        assert cfg.dt == 0.2
        assert cfg.arena_extents == (40.0, 40.0, 25.0)
        assert cfg.pursuer_speed == 1.3
        assert cfg.cone_constraint is False
        assert cfg.learner.alpha_actor == 0.002
        assert cfg.reward.success_coeff == 15.0
        # untouched keys keep their defaults
        assert cfg.max_plays == TrainConfig().max_plays
        assert cfg.evader_speed == 1.0

    def test_scenario_section(self, tmp_path):
        path = tmp_path / "custom.ini"
        path.write_text(
            """
[scenario]
name = corner-chase
pursuer_start = 1 1 0
evader_start = 30, 30, 0
obstacles = 10 10 5 1 ; 20 25 3 1
pursuer_heading = 0.5 1.2
"""
        )
        _, scenario = load_config(path)
        assert scenario.name == "corner-chase"
        assert scenario.pursuer_start == (1.0, 1.0, 0.0)
        assert scenario.evader_start == (30.0, 30.0, 0.0)
        assert scenario.obstacles == ((10.0, 10.0, 5.0, 1.0), (20.0, 25.0, 3.0, 1.0))
        assert scenario.pursuer_heading == (0.5, 1.2)
        assert scenario.evader_heading is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[train]\nepisods = 10\n")
        with pytest.raises(ValueError, match="episods"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "extra.ini"
        path.write_text("[simulation]\ndt = 0.1\n")
        with pytest.raises(ValueError, match="simulation"):
            load_config(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text("[config]\nschema = peg3d.config.v0\n")
        with pytest.raises(ValueError, match="schema"):
            load_config(path)

    def test_scenario_needs_both_starts(self, tmp_path):
        path = tmp_path / "half.ini"
        path.write_text("[scenario]\npursuer_start = 1 1 0\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_bad_obstacle_row(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[scenario]\npursuer_start = 1 1 0\nevader_start = 2 2 0\nobstacles = 1 2 3\n"
        )
        with pytest.raises(ValueError, match="obstacle"):
            load_config(path)

    def test_accepted_keys_pinned(self):
        assert {section: set(keys) for section, (_, keys) in INI_SECTIONS.items()} == ACCEPTED_KEYS

    def test_readme_block_names_every_key_with_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cfg, scenario = load_config(path)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(block)
        assert {section: set(parser.options(section)) for section in parser.sections()} == (
            ACCEPTED_KEYS
        )
        # the documented values are the defaults (the example seed aside)
        assert dataclasses.replace(cfg, seed=0) == TrainConfig()
        assert scenario.pursuer_start == builtin_scenarios()[1].pursuer_start

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_ini_to_dict_round_trip_and_defaults(self, tmp_path, data):
        chosen = data.draw(st.sets(st.sampled_from(sorted(VALID_VALUES))))
        if any(section == "scenario" for section, _ in chosen):
            chosen |= {("scenario", "pursuer_start"), ("scenario", "evader_start")}
        values = {item: data.draw(VALID_VALUES[item]) for item in sorted(chosen)}
        sections: dict[str, list[str]] = {}
        for (section, key), value in values.items():
            sections.setdefault(section, []).append(f"{key} = {_ini_text(value)}")
        path = tmp_path / "random.ini"
        path.write_text(
            "".join(f"[{s}]\n" + "\n".join(rows) + "\n" for s, rows in sections.items())
        )

        cfg, scenario = load_config(path)
        assert train_config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        if scenario is None:
            assert "scenario" not in sections
        else:
            assert scenario_from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

        defaults = {
            "train": TrainConfig(),
            "arena": TrainConfig(),
            "agents": TrainConfig(),
            "learner": LearnerConfig(),
            "reward": RewardConfig(),
        }
        loaded = {
            "train": cfg,
            "arena": cfg,
            "agents": cfg,
            "learner": cfg.learner,
            "reward": cfg.reward,
            "scenario": scenario,
        }
        scenario_defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        for section, keys in ACCEPTED_KEYS.items():
            if section == "config" or loaded[section] is None:
                continue
            for key in keys:
                name = "arena_extents" if key == "extents" else key
                if (section, key) in values:
                    expected = values[section, key]
                elif section == "scenario":
                    expected = scenario_defaults[name]
                else:
                    expected = getattr(defaults[section], name)
                assert getattr(loaded[section], name) == expected, (section, key)

