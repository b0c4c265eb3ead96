import configparser
import csv
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peg3d import logs, training
from peg3d.cli import main as cli_main
from peg3d.env import CAPTURED, OPEN_CLEARANCE, TIMEOUT, Obstacle, nearest_obstacle
from peg3d.fuzzy import RuleBase
from peg3d.learner import (
    DISTANCE_DOMAIN,
    NOISE_BLOCK,
    FuzzyActorCritic,
    extract_inputs,
    noise_stream,
)
from peg3d.logs import (
    EpisodeLog,
    StepRecord,
    export_csv,
    export_json,
    load_episode,
    summary_row,
    write_rows_csv,
)
from peg3d.reward import total_reward
from peg3d.scenarios import Scenario, TrainConfig, build_arena, builtin_scenarios, initial_states
from peg3d.training import (
    CheckpointLayoutError,
    build_learners,
    build_rulebase,
    evaluate,
    load_checkpoint,
    run_episode,
    save_checkpoint,
    train,
)

from floatbits import bits

# Marks a checkpoint key that a test deletes instead of setting.
DELETE = object()


STEP_FIELDS = [f.name for f in dataclasses.fields(StepRecord)]


def episode_dict_reference(log) -> dict:
    """``dataclasses.asdict(log)`` with the step records transposed into a column per field."""
    data = dataclasses.asdict(log)
    if data["records"] is not None:
        data["records"] = {name: [row[name] for row in data["records"]] for name in STEP_FIELDS}
    return data


def episode_json_reference(log) -> str:
    """The episode JSON layout from ``episode_dict_reference``: a line per key and per column."""
    lines = []
    for key, value in episode_dict_reference(log).items():
        text = json.dumps(value)
        if key == "records" and value is not None:
            text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            text += "\n}"
        lines.append(f"{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def rows_csv_reference(path, header, rows, schema):
    """``write_rows_csv`` as it was: each value formatted to a string before csv.writer."""

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(value) for value in row])


def zero_weight_setup(config):
    rulebase = build_rulebase(config)
    return rulebase, build_learners(config, rulebase.n_rules)


def tree_bytes(root: Path) -> dict:
    """Every path under ``root``, with a file's bytes (None for a directory)."""
    return {
        path.relative_to(root): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


class TestRunEpisode:
    def test_zero_policy_three_steps_straight(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=3)
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, None, record_steps=True)
        assert log.steps == 3
        assert len(log.records) == 3
        assert log.outcome == TIMEOUT
        assert log.scenario == sc.name
        assert (log.pursuer_start, log.evader_start) == ([5.0, 30.0, 0.0], [5.0, 5.0, 0.0])
        # straight-line motion along the chase axis for both agents
        for role, speed in (("pursuer", 1.1), ("evader", 1.0)):
            pts = [getattr(log, f"{role}_start")] + [
                getattr(r, f"{role}_pos") for r in log.records
            ]
            for i, (a, b) in enumerate(zip(pts, pts[1:])):
                d = np.subtract(b, a)
                assert np.linalg.norm(d) == pytest.approx(speed * 0.1, abs=1e-12)
                assert np.allclose(d / np.linalg.norm(d), (0.0, -1.0, 0.0), atol=1e-12)

    def test_immediate_capture(self):
        sc = Scenario(name="close", pursuer_start=(5.0, 5.0, 0.0), evader_start=(5.5, 5.0, 0.0))
        cfg = TrainConfig(max_plays=100)
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, None, record_steps=True)
        assert log.outcome == CAPTURED
        assert log.steps == 0
        assert log.capture_time == 0.0
        assert log.records == []
        assert log.final_distance == pytest.approx(0.5, abs=1e-12)

    def test_never_ends_running_and_respects_step_cap(self):
        sc = builtin_scenarios()[2]
        cfg = TrainConfig(max_plays=7)
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, None)
        assert log.outcome in (CAPTURED, TIMEOUT)
        assert log.steps <= 7

    @pytest.mark.parametrize("frozen, learning", [("evader", "pursuer"), ("pursuer", "evader")])
    def test_training_updates_weights_and_freeze_blocks(self, frozen, learning):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=40, freeze=frozen)
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, noise_stream(np.random.default_rng(3)))
        assert np.any(learners[learning].critic)
        assert not np.any(learners[frozen].critic)
        assert not np.any(learners[frozen].actor)
        assert log.td_abs_mean[learning] is not None
        assert log.td_abs_mean[frozen] is None

    def test_cone_fractions_full_compliance_for_zero_policy(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=20)
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, None)
        # straight chase along the axis: pursuer aligned, evader pointed away
        assert log.cone_fraction["pursuer"] == 1.0
        assert log.cone_fraction["evader"] == 1.0

    def test_slower_pursuer_has_no_cone_and_leaves_the_evader_limited(self, monkeypatch):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=20, pursuer_speed=1.0, evader_speed=1.1)
        rb, learners = zero_weight_setup(cfg)
        cone_limited_command, limited = training.cone_limited_command, []

        def recording_cone_limited_command(state, *args):
            limited.append(state.speed)
            return cone_limited_command(state, *args)

        monkeypatch.setattr(training, "cone_limited_command", recording_cone_limited_command)
        log = run_episode(sc, cfg, [], rb, learners, None)
        assert log.steps == 20
        # No pursuit cone exists, so only the evader's command is limited, once per step.
        assert limited == [1.1] * 20
        assert log.cone_fraction == {"pursuer": 0.0, "evader": 1.0}

    @pytest.mark.parametrize("cone_constraint", [True, False])
    def test_step_loop_carries_plain_floats(self, monkeypatch, cone_constraint):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=25, cone_constraint=cone_constraint)
        rb, learners = zero_weight_setup(cfg)
        step_agent, states = training.step_agent, []

        def recording_step_agent(*args, **kwargs):
            states.append(step_agent(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(training, "step_agent", recording_step_agent)
        noise = noise_stream(np.random.default_rng(5))
        log = run_episode(sc, cfg, [], rb, learners, noise, record_steps=True)
        assert log.steps == 25
        assert len(states) == 2 * log.steps
        for state in states:
            assert [type(v) for v in (*state.position, state.alpha, state.theta)] == [float] * 5
        for record in log.records:
            for field in dataclasses.fields(record):
                value = getattr(record, field.name)
                expected = bool if field.name.endswith("_cone") else float
                values = value if isinstance(value, list) else [value]
                assert {type(v) for v in values} == {expected}, field.name

    def test_clearance_change_is_measured_against_the_nearest_obstacle_after_the_move(self):
        # Each reward equals the one computed from scratch, with both clearances
        # taken to the obstacle nearest after the move, also when that changes.
        sc = builtin_scenarios()[1]  # a straight chase down x = 5, past the obstacles
        cfg = TrainConfig(max_plays=400)
        obstacles = [
            Obstacle((8.0, 25.0, 0.0), 1.0),
            Obstacle((8.0, 15.0, 0.0), 1.0),
            Obstacle((2.0, 8.0, 0.0), 1.0),
        ]
        log = run_episode(sc, cfg, obstacles, *zero_weight_setup(cfg), None, record_steps=True)
        arena = build_arena(cfg, obstacles)
        starts = initial_states(sc, cfg)
        before = [state.position for state in starts]
        nearest = [nearest_obstacle(position, arena)[0] for position in before]
        d_prev = extract_inputs(starts[0], starts[1], (None, 0.0))[0]
        changes = 0
        for t, record in enumerate(log.records):
            captured = log.outcome == CAPTURED and t == log.steps - 1
            for i, role in enumerate(("pursuer", "evader")):
                position = tuple(getattr(record, f"{role}_pos"))
                obs, clear = nearest_obstacle(position, arena)
                changes += obs is not nearest[i]
                expected = total_reward(
                    obs.surface_distance(before[i]), clear, d_prev, record.distance,
                    captured, role, cfg.reward,
                )  # fmt: skip
                assert getattr(record, f"{role}_reward") == expected, (t, role)
                before[i], nearest[i] = position, obs
            d_prev = record.distance
        assert log.outcome == CAPTURED
        assert changes >= 2  # the pursuer's nearest obstacle changed twice

    def test_an_open_arena_reads_as_the_far_end_of_the_distance_input(self):
        # With no obstacle every clearance is OPEN_CLEARANCE, the top of the
        # rule grid's distance domain, and it never changes, so neither does
        # the repulsion term.
        assert OPEN_CLEARANCE == DISTANCE_DOMAIN[1] == 35.0
        sc = dataclasses.replace(builtin_scenarios()[2], obstacle_count=0)
        cfg = TrainConfig(episodes=2, max_plays=80)
        log = train(sc, cfg).final_log
        assert log.obstacles == [] and log.steps > 0
        starts = initial_states(sc, cfg)
        d_prev = extract_inputs(starts[0], starts[1], (None, 0.0))[0]
        for t, record in enumerate(log.records):
            captured = log.outcome == CAPTURED and t == log.steps - 1
            for role in ("pursuer", "evader"):
                assert getattr(record, f"{role}_clearance") == 35.0
                expected = total_reward(
                    35.0, 35.0, d_prev, record.distance, captured, role, cfg.reward
                )
                assert getattr(record, f"{role}_reward") == expected, (t, role)
            d_prev = record.distance
        assert log.min_clearance == {"pursuer": 35.0, "evader": 35.0}
        row = summary_row(log)
        assert (row["pursuer_min_clearance"], row["evader_min_clearance"]) == (35.0, 35.0)

    def test_benchmark_seam(self, monkeypatch):
        """The boundaries perfbench/tracing.py wraps keep what it reads and their per-step calls.

        Its fire observer counts ``np.count_nonzero(phi)`` of ``phi.size`` rules, and its
        act observer reads ``result[0].tolist()``.
        """
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=30)
        rb, learners = zero_weight_setup(cfg)
        first = rb.fire((10.0, 0.5, 20.0, -1.0))
        kept = np.asarray(first)
        second = rb.fire((3.0, -2.0, 7.0, 2.5))
        assert np.asarray(first).shape == (rb.n_rules,) and first.size == rb.n_rules
        assert np.count_nonzero(first) == np.count_nonzero(second) == 16
        assert np.array_equal(np.asarray(first), kept)
        u, _ = learners["pursuer"].act(first, noise_stream(np.random.default_rng(1)))
        assert [type(v) for v in u.tolist()] == [float, float]

        calls = {}

        def count(owner, name):
            original = getattr(owner, name)
            calls[name] = 0

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count(RuleBase, "fire")
        for name in ("act", "td_error", "update_critic", "update_actor"):
            count(FuzzyActorCritic, name)
        count(training, "firing_entropy")
        log = run_episode(sc, cfg, [], rb, learners, noise_stream(np.random.default_rng(7)))
        assert log.steps == 30
        # Two roles, each once per step; both learn, and the last step fires no successor.
        assert calls == dict.fromkeys(calls, 2 * log.steps)


class TestEpisodeLogExports:
    def _small_log(self, max_plays=3):
        cfg = TrainConfig(max_plays=max_plays)
        rb, learners = zero_weight_setup(cfg)
        return run_episode(builtin_scenarios()[1], cfg, [], rb, learners, None, record_steps=True)

    def _close_log(self):
        # Starts inside the capture radius, so the episode records zero steps.
        sc = Scenario(name="close", pursuer_start=(5.0, 5.0, 0.0), evader_start=(5.4, 5.0, 0.0))
        cfg = TrainConfig(max_plays=10)
        rb, learners = zero_weight_setup(cfg)
        return run_episode(sc, cfg, [], rb, learners, None, record_steps=True)

    def _training_log(self):
        cfg = TrainConfig(max_plays=6)
        rb, learners = zero_weight_setup(cfg)
        return run_episode(
            builtin_scenarios()[1], cfg, [], rb, learners, noise_stream(np.random.default_rng(4)),
            record_steps=True, seed=4, episode=0,
        )

    @pytest.mark.parametrize("kind", ["training", "evaluation", "close"])
    def test_exports_match_asdict_reference(self, tmp_path, kind):
        log = {
            "training": self._training_log,
            "evaluation": self._small_log,
            "close": self._close_log,
        }[kind]()
        tds = {rec.pursuer_td for rec in log.records} | {rec.evader_td for rec in log.records}
        if kind == "training":
            assert all(isinstance(td, float) for td in tds)
        else:
            assert tds <= {None}
        assert (log.steps == 0) == (kind == "close")

        # Reference: the exports as written with a deep copy through asdict.
        ref = tmp_path / "ref"
        ref.mkdir()
        (ref / "episode.json").write_text(episode_json_reference(log))
        summary = dataclasses.replace(log, records=None)
        (ref / "ep_summary.json").write_text(episode_json_reference(summary))

        export_json(log, tmp_path / "episode.json")
        export_csv(log, tmp_path, stem="ep")
        for name in ("episode.json", "ep_summary.json"):
            assert (tmp_path / name).read_bytes() == (ref / name).read_bytes()

    def test_json_round_trip_identity(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "episode.json"
        export_json(log, path)
        assert load_episode(path) == log
        # "{", a line per top-level key, a line per step column, "},", "}".
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(dataclasses.fields(log)) + len(STEP_FIELDS) + 2
        assert json.loads(path.read_text())["schema"] == "peg3d.episode.v2"

    @pytest.mark.parametrize("kind", ["training", "close"])
    def test_indented_log_still_loads(self, tmp_path, kind):
        log = {"training": self._training_log, "close": self._close_log}[kind]()
        path = tmp_path / "episode.json"
        with open(path, "w") as fh:
            json.dump(episode_dict_reference(log), fh, indent=1)
            fh.write("\n")
        assert load_episode(path) == log

    @pytest.mark.parametrize("records", [None, []], ids=["none", "empty"])
    def test_round_trip_without_records(self, tmp_path, records):
        log = self._small_log()
        log.records = records
        if records is not None:
            log.steps = 0  # every column holds one value per step
        path = tmp_path / "episode.json"
        export_json(log, path)
        assert path.read_text() == episode_json_reference(log)
        loaded = load_episode(path)
        assert loaded.records == records and loaded == log

    def test_non_finite_values_round_trip(self, tmp_path):
        log = self._small_log()
        rec = log.records[0]
        rec.pursuer_reward, rec.evader_reward = math.nan, -math.inf
        rec.pursuer_td, rec.distance, rec.time = math.inf, -0.0, 5e-324
        log.final_distance = math.nan
        path = tmp_path / "episode.json"
        export_json(log, path)
        text = path.read_text()
        assert text == episode_json_reference(log)
        assert '"pursuer_reward": [NaN, ' in text and '"evader_reward": [-Infinity, ' in text
        assert '"pursuer_td": [Infinity, null, null]' in text
        loaded = load_episode(path)
        back = loaded.records[0]
        assert math.isnan(back.pursuer_reward) and math.isnan(loaded.final_distance)
        assert (back.evader_reward, back.pursuer_td, back.evader_td) == (-math.inf, math.inf, None)
        assert math.copysign(1.0, back.distance) == -1.0 and back.time == 5e-324
        assert loaded.records[1:] == log.records[1:]

    @pytest.mark.parametrize("count", [0, 1, 2, 75])
    def test_json_bytes_match_column_writer(self, tmp_path, count):
        log = self._training_log()
        template, log.records = log.records, []
        specials = (math.nan, math.inf, -math.inf, None, -0.0)
        for i in range(count):
            rec = dataclasses.replace(template[i % len(template)], time=i * 0.1)
            rec.pursuer_td, rec.evader_td = specials[i % 5], specials[(i + 1) % 5]
            rec.distance = (math.nan, math.inf, -math.inf, -0.0, 5e-324)[i % 5]
            rec.pursuer_pos = [-0.0, math.inf, float(i)]
            rec.evader_cone = i % 2 == 0
            log.records.append(rec)
        log.steps = count
        path = tmp_path / "episode.json"
        export_json(log, path)
        assert path.read_text() == episode_json_reference(log)
        # "{", a line per top-level key and per step column, "},", "}", whatever the count.
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(dataclasses.fields(log)) + len(STEP_FIELDS) + 2
        # What loads back writes the same bytes again.
        export_json(load_episode(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_columns_in_any_order_load_in_field_order(self, tmp_path):
        log = self._training_log()
        data = episode_dict_reference(log)
        data["records"] = dict(reversed(data["records"].items()))
        loaded = EpisodeLog.from_dict(json.loads(json.dumps(data)))
        assert loaded == log
        for rec in loaded.records:
            assert type(rec) is StepRecord and list(vars(rec)) == STEP_FIELDS

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda cols: cols.update(bogus=[1]), "unknown StepRecord key 'bogus'"),
            (lambda cols: cols.pop("distance"), "missing StepRecord key 'distance'"),
            (lambda cols: cols.update(time=7), "records.time must be a list, got 7"),
            (
                lambda cols: cols.update(evader_u=dict(enumerate(cols["evader_u"]))),
                r"records.evader_u must be a list, got \{'0': \[",
            ),
            (
                lambda cols: cols["distance"].pop(),
                r"records.distance must hold 6 values \(steps\), got 5$",
            ),
            (lambda cols: cols["time"].pop(), r"records.time must hold 6 values \(steps\), got 5$"),
            (
                lambda cols: cols["evader_cone"].append(True),
                r"records.evader_cone must hold 6 values \(steps\), got 7$",
            ),
        ],
        ids=[
            "unknown column", "missing column", "column not a list", "column an object",
            "column short", "time short", "column long",
        ],  # fmt: skip
    )
    def test_bad_column_message(self, tmp_path, corrupt, message):
        data = episode_dict_reference(self._training_log())
        corrupt(data["records"])
        path = tmp_path / "episode.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{message}"):
            load_episode(path)

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{"time": 0.0}], "records must be a dict of columns, got [{'time': 0.0}]"),
            ([], "records must be a dict of columns, got []"),
            ("ab", "records must be a dict of columns, got 'ab'"),
            (5, "records must be a dict of columns, got 5"),
        ],
        ids=["rows", "empty list", "string", "number"],
    )
    def test_records_not_a_dict_message(self, tmp_path, records, message):
        data = episode_dict_reference(self._small_log())
        data["records"] = records
        path = tmp_path / "episode.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_episode(path)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("time", None, "a float"),
            ("pursuer_pos", 5, "a list of 3 floats"),
            ("evader_pos", [1.0, "a", 2.0], "a list of 3 floats"),
            ("evader_pos", [1.0, 2.0], "a list of 3 floats"),
            ("pursuer_u", [1.0, 2.0, 3.0], "a list of 2 floats"),
            ("pursuer_u_exec", [True, 0.0], "a list of 2 floats"),
            ("evader_td", "0.5", "a float or None"),
            ("pursuer_cone", 1, "a bool"),
        ],
    )
    def test_wrong_typed_record_value_named(self, field, value, kind):
        data = episode_dict_reference(self._training_log())
        data["records"][field][3] = value
        message = f"records[3].{field} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EpisodeLog.from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("seed", "4", "an int or None"),
            ("dt", [0.1], "a float"),
            ("obstacles", [[1.0, 2.0, "x", 1.0]], "a list of lists of floats"),
            ("path_length", {"pursuer": "a", "evader": 1.0}, "a dict of str to float"),
            ("collision_steps", {"pursuer": 1.5, "evader": 0}, "a dict of str to int"),
            ("records", "ab", "a dict of columns"),
        ],
    )
    def test_wrong_typed_log_value_named(self, field, value, kind):
        data = episode_dict_reference(self._training_log())
        data[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be {kind}, got ')}"):
            EpisodeLog.from_dict(json.loads(json.dumps(data)))

    def test_ints_load_as_floats(self):
        # JSON may spell a whole float as an int; that is a float's value still.
        data = episode_dict_reference(self._training_log())
        data["dt"], data["obstacles"] = 1, [[1, 2, 3, 1]]
        columns = data["records"]
        columns["time"] = [0] * len(columns["time"])
        columns["pursuer_pos"] = [[1, 2.0, 3]] * len(columns["time"])
        loaded = EpisodeLog.from_dict(json.loads(json.dumps(data)))
        assert loaded.records[-1].pursuer_pos == [1, 2.0, 3]
        assert loaded.records[-1].time == 0

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        log = self._small_log()
        rec = log.records[0]
        rec.time, rec.pursuer_reward, rec.evader_reward = -0.0, math.nan, math.inf
        rec.pursuer_td, rec.evader_td = None, -math.inf
        rec.pursuer_cone, rec.evader_cone = True, False
        log.records[1].evader_td, log.records[1].pursuer_cone = 2.5e-17, False
        export_csv(log, tmp_path, stem="ep")
        trajectory = [(r.time, *r.pursuer_pos, *r.evader_pos, r.distance) for r in log.records]
        series = [
            (
                r.time, r.pursuer_reward, r.evader_reward, r.pursuer_td, r.evader_td,
                r.pursuer_entropy, r.evader_entropy, r.pursuer_cone, r.evader_cone,
            )
            for r in log.records
        ]
        # Summary-style rows: None, ints, strings and floats side by side.
        summary = [(0, "captured", 3, None, -0.0, math.nan), (1, "timeout", 0, 1.5, math.inf, 7)]
        write_rows_csv(tmp_path / "rows.csv", "a b c d e f".split(), summary, "peg3d.rows.v1")
        for name, header, rows, schema in (
            (
                "ep_trajectory.csv",
                "time pursuer_x pursuer_y pursuer_z evader_x evader_y evader_z distance",
                trajectory,
                "peg3d.trajectory.v1",
            ),
            (
                "ep_series.csv",
                "time pursuer_reward evader_reward pursuer_td evader_td "
                "pursuer_entropy evader_entropy pursuer_cone evader_cone",
                series,
                "peg3d.series.v1",
            ),
            ("rows.csv", "a b c d e f", summary, "peg3d.rows.v1"),
        ):
            rows_csv_reference(tmp_path / "ref.csv", header.split(), rows, schema)
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name

    def test_csv_rows_match_steps(self, tmp_path):
        log = self._small_log()
        files = export_csv(log, tmp_path, stem="ep")
        lines = (tmp_path / "ep_trajectory.csv").read_text().splitlines()
        assert lines[0] == "# schema=peg3d.trajectory.v1"
        assert lines[1].startswith("time,")
        assert len(lines) == 2 + log.steps
        series = (tmp_path / "ep_series.csv").read_text().splitlines()
        assert len(series) == 2 + log.steps
        summary = json.loads((tmp_path / "ep_summary.json").read_text())
        assert summary["outcome"] == log.outcome
        assert len(files) == 3

    def test_empty_episode_exports_terminal_row(self, tmp_path):
        log = self._close_log()
        export_csv(log, tmp_path, stem="ep")
        lines = (tmp_path / "ep_trajectory.csv").read_text().splitlines()
        assert len(lines) == 3  # schema comment + header + terminal row
        assert lines[2].startswith("0.0,")

    @pytest.mark.parametrize("kind", ["training", "close"])
    def test_summary_is_the_log_without_records(self, tmp_path, kind):
        log = {"training": self._training_log, "close": self._close_log}[kind]()
        export_csv(log, tmp_path, stem="ep")
        assert load_episode(tmp_path / "ep_summary.json") == dataclasses.replace(log, records=None)

    def test_csv_export_needs_step_records(self, tmp_path):
        log = self._small_log()
        log.records = None
        with pytest.raises(ValueError, match="^export_csv needs a log with step records$"):
            export_csv(log, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_log_in_the_old_key_order_loads(self, tmp_path):
        # The per-role keys before they took the summary-column order; keys load by name.
        old_order = [
            "scenario", "seed", "episode", "dt", "outcome", "steps", "elapsed", "final_distance",
            "capture_time", "pursuer_start", "evader_start", "obstacles", "path_length",
            "min_clearance", "collision_steps", "cone_fraction", "reward_total", "reward_mean",
            "td_abs_mean", "entropy_mean", "records", "schema",
        ]  # fmt: skip
        log = self._training_log()
        data = episode_dict_reference(log)
        assert sorted(data) == sorted(old_order) and list(data) != old_order
        path = tmp_path / "episode.json"
        path.write_text(json.dumps({key: data[key] for key in old_order}))
        assert load_episode(path) == log

    def test_unsupported_schema_rejected(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "episode.json"
        export_json(log, path)
        data = json.loads(path.read_text())
        data["schema"] = "peg3d.episode.v999"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_episode(path)


class TestTrain:
    @pytest.mark.parametrize("entry", ["train", "evaluate"])
    def test_bad_scenario_rejected_before_first_episode(self, tmp_path, monkeypatch, entry):
        cfg = TrainConfig(episodes=1, max_plays=5)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        sc = Scenario(
            name="outside", pursuer_start=(50.0, 50.0, 50.0), evader_start=(5.0, 5.0, 0.0),
            obstacle_count=0,
        )

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(training, "run_episode", no_episode)
        out_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="pursuer_start must be 3 floats in the arena"):
            if entry == "train":
                train(sc, cfg, out_dir=out_dir)
            else:
                evaluate(learners, rb, sc, cfg, runs=1, out_dir=out_dir, record_steps=True)
        assert not out_dir.exists()

    def test_writes_run_files(self, tmp_path):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(episodes=2, max_plays=30, seed=11)
        result = train(sc, cfg, out_dir=tmp_path)
        for name in ("manifest.json", "episodes.csv", "checkpoint.json", "episode_final.json"):
            assert (tmp_path / name).exists(), name
        assert len(result.summaries) == 2
        assert all(row["steps"] <= 30 for row in result.summaries)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == "peg3d.manifest.v1"
        assert manifest["seed"] == 11
        assert len(manifest["episodes"]) == 2

    def test_seed_changes_outputs(self, tmp_path):
        sc = builtin_scenarios()[1]
        train(sc, TrainConfig(episodes=2, max_plays=40, seed=1), out_dir=tmp_path / "a")
        train(sc, TrainConfig(episodes=2, max_plays=40, seed=2), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "episodes.csv").read_bytes() != (
            tmp_path / "b" / "episodes.csv"
        ).read_bytes()

    def test_log_steps_modes(self, tmp_path):
        sc = builtin_scenarios()[1]
        none_res = train(sc, TrainConfig(episodes=2, max_plays=10, log_steps="none"))
        assert none_res.final_log is None
        all_res = train(
            sc, TrainConfig(episodes=2, max_plays=10, log_steps="all"), out_dir=tmp_path
        )
        assert (tmp_path / "episodes" / "episode_0000.json").exists()
        assert (tmp_path / "episodes" / "episode_0001.json").exists()
        assert all_res.final_log is not None

    def test_reused_out_dir_rejected_before_first_episode(self, tmp_path, monkeypatch):
        # A shorter second run would leave the first run's later episode logs
        # beside its own manifest.
        sc = builtin_scenarios()[1]
        train(sc, TrainConfig(episodes=3, max_plays=10, log_steps="all"), out_dir=tmp_path)
        before = tree_bytes(tmp_path)
        monkeypatch.setattr(training, "run_episode", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(FileExistsError, match=r"manifest\.json already exists"):
            train(sc, TrainConfig(episodes=1, max_plays=10, log_steps="all"), out_dir=tmp_path)
        assert tree_bytes(tmp_path) == before
        # Each output alone is refused too, and the message names it.
        for name in training.TRAIN_OUTPUTS:
            out = tmp_path / f"only_{name}"
            (out / name).mkdir(parents=True)
            with pytest.raises(FileExistsError, match=f"^{re.escape(str(out / name))} "):
                train(sc, TrainConfig(episodes=1, max_plays=10), out_dir=out)
            assert tree_bytes(out) == {Path(name): None}

    def test_frozen_pursuer_stays_zero(self):
        sc = builtin_scenarios()[1]
        res = train(sc, TrainConfig(episodes=2, max_plays=40, freeze="pursuer"))
        assert not np.any(res.learners["pursuer"].actor)
        assert np.any(res.learners["evader"].critic)


def clamp_to_turn_limit(value):
    return max(-FuzzyActorCritic.action_limit, min(FuzzyActorCritic.action_limit, value))


class TestNoiseStream:
    """train's one noise stream adds, act by act, what per-act ``Generator.normal`` draws gave."""

    @staticmethod
    def _record_acts(monkeypatch):
        act, calls = FuzzyActorCritic.act, []

        def recording_act(self, phi, noise=None):
            u, u_exec = act(self, phi, noise)
            calls.append((self, u.tolist(), u_exec, noise))
            return u, u_exec

        monkeypatch.setattr(FuzzyActorCritic, "act", recording_act)
        return calls

    @pytest.mark.parametrize("freeze", ["none", "pursuer", "evader"])
    def test_train_adds_the_per_act_draws(self, monkeypatch, freeze):
        cfg = TrainConfig(episodes=6, max_plays=300, seed=3, freeze=freeze, log_steps="none")
        calls = self._record_acts(monkeypatch)
        result = train(builtin_scenarios()[1], cfg)
        roles = (result.learners["pursuer"], result.learners["evader"])
        learning = [role for role in ("pursuer", "evader") if role != freeze]

        # Draws per episode: two per step for each learning role.  Some block
        # boundary falls inside an episode, and some block outlives its episode.
        ends = np.cumsum([2 * len(learning) * row["steps"] for row in result.summaries]).tolist()
        starts = [0, *ends[:-1]]
        assert any(s // NOISE_BLOCK < (e - 1) // NOISE_BLOCK for s, e in zip(starts, ends))
        assert any(e % NOISE_BLOCK for e in ends[:-1])
        assert ends[-1] > 2 * NOISE_BLOCK

        # Acts alternate pursuer, evader; one stream serves every learning act.
        assert [learner for learner, *_ in calls] == list(roles) * (len(calls) // 2)
        streams = {id(noise) for *_, noise in calls if noise is not None}
        assert len(streams) == 1
        child = np.random.SeedSequence(cfg.seed).spawn(2)[1]
        reference, sigma = np.random.default_rng(child), cfg.learner.sigma
        unclamped = 0
        for i, (learner, u, u_exec, noise) in enumerate(calls):
            role = ("pursuer", "evader")[i % 2]
            assert (noise is not None) == (role in learning)
            if noise is None:
                expected = [clamp_to_turn_limit(v) for v in u]
            else:
                summed = [v + z for v, z in zip(u, reference.normal(0.0, sigma, 2).tolist())]
                expected = [clamp_to_turn_limit(v) for v in summed]
                unclamped += expected == summed
            assert bits(u_exec) == bits(expected), i
        # Most draws show through the clamp, so the comparison sees the noise itself.
        assert unclamped > 0.9 * ends[-1] / 2

    def test_evaluate_draws_no_noise(self, monkeypatch):
        cfg = TrainConfig(episodes=2, max_plays=50, seed=5)
        trained = train(builtin_scenarios()[1], cfg)
        calls = self._record_acts(monkeypatch)
        monkeypatch.setattr(training, "noise_stream", None)  # evaluate builds no stream
        evaluate(trained.learners, trained.rulebase, builtin_scenarios()[1], cfg, runs=3)
        assert calls and all(noise is None for *_, noise in calls)
        for _, u, u_exec, _ in calls:
            assert bits(u_exec) == bits([clamp_to_turn_limit(v) for v in u])


class TestCheckpoints:
    def test_round_trip(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(episodes=2, max_plays=30, seed=5)
        res = train(sc, cfg)
        learners, rulebase, scenario, config = load_checkpoint(res.checkpoint)
        assert scenario == sc
        assert config == cfg
        assert rulebase.n_rules == res.rulebase.n_rules
        for role in ("pursuer", "evader"):
            assert np.array_equal(learners[role].actor, res.learners[role].actor)
            assert np.array_equal(learners[role].critic, res.learners[role].critic)

    def test_file_round_trip(self, tmp_path):
        sc = builtin_scenarios()[2]
        cfg = TrainConfig(episodes=1, max_plays=20, seed=6)
        res = train(sc, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(res.checkpoint, path)
        learners, _, _, _ = load_checkpoint(path)
        assert np.array_equal(learners["pursuer"].critic, res.learners["pursuer"].critic)

    def test_layout_mismatch_rejected(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(episodes=1, max_plays=10)
        res = train(sc, cfg)
        broken = json.loads(json.dumps(res.checkpoint))
        broken["agents"]["pursuer"]["actor"] = [[0.0] * 10, [0.0] * 10]
        with pytest.raises(CheckpointLayoutError):
            load_checkpoint(broken)
        mismatched = json.loads(json.dumps(res.checkpoint))
        mismatched["config"]["learner"]["mfs_per_input"] = 3
        with pytest.raises(CheckpointLayoutError, match="do not match the layout"):
            load_checkpoint(mismatched)

    def test_v4_layout_pinned(self):
        sc = builtin_scenarios()[1]
        res = train(sc, TrainConfig(episodes=1, max_plays=10, seed=3))
        checkpoint = res.checkpoint
        assert set(checkpoint) == {"schema", "version", "scenario", "config", "agents"}
        assert checkpoint["schema"] == "peg3d.checkpoint.v4"
        assert checkpoint["scenario"] == sc.to_dict() == res.manifest["scenario"]
        assert checkpoint["config"] == res.manifest["config"]
        assert {role: set(weights) for role, weights in checkpoint["agents"].items()} == {
            "pursuer": {"actor", "critic"},
            "evader": {"actor", "critic"},
        }

    def test_v1_checkpoint_rejected(self):
        res = train(builtin_scenarios()[1], TrainConfig(episodes=1, max_plays=10))
        hyper = {"n_rules": 625, "n_channels": 2, "alpha_actor": 0.001, "alpha_critic": 0.05,
                 "gamma": 0.95, "sigma": 0.1, "action_limit": np.pi / 4}  # fmt: skip
        v1 = dict(
            res.checkpoint,
            schema="peg3d.checkpoint.v1",
            seed=0,
            fuzzy={"inputs": [{"lo": 0.0, "hi": 35.0, "peaks": [0.0, 8.75, 17.5, 26.25, 35.0]}]},
            agents={role: {**w, **hyper} for role, w in res.checkpoint["agents"].items()},
        )
        expected = r"'peg3d.checkpoint.v1' \(expected peg3d.checkpoint.v4\)"
        with pytest.raises(ValueError, match=f"^unsupported checkpoint schema {expected}$"):
            load_checkpoint(v1)

    def test_unsupported_schema_rejected(self):
        sc = builtin_scenarios()[1]
        res = train(sc, TrainConfig(episodes=1, max_plays=10))
        bad = dict(res.checkpoint, schema="peg3d.checkpoint.v0")
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(bad)
        # v2 stored the time budget and the rule grid's input domains in its config.
        learner = dict(res.checkpoint["config"]["learner"], distance_domain=[0.0, 35.0])
        config = dict(res.checkpoint["config"], max_time=100.0, learner=learner)
        v2 = dict(res.checkpoint, schema="peg3d.checkpoint.v2", config=config)
        expected = r"'peg3d.checkpoint.v2' \(expected peg3d.checkpoint.v4\)"
        with pytest.raises(ValueError, match=f"^unsupported checkpoint schema {expected}$"):
            load_checkpoint(v2)

    def test_v3_checkpoint_rejected(self):
        # v3 stored sensing_range, the clearance an arena without obstacles reported.
        res = train(builtin_scenarios()[1], TrainConfig(episodes=1, max_plays=10))
        config = dict(res.checkpoint["config"], sensing_range=35.0)
        v3 = dict(res.checkpoint, schema="peg3d.checkpoint.v3", config=config)
        expected = r"'peg3d.checkpoint.v3' \(expected peg3d.checkpoint.v4\)"
        with pytest.raises(ValueError, match=f"^unsupported checkpoint schema {expected}$"):
            load_checkpoint(v3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "role, part, index",
        [("pursuer", "actor", (1, 17)), ("evader", "critic", (3,))],
    )
    def test_non_finite_weight_rejected(self, tmp_path, role, part, index, value):
        res = train(builtin_scenarios()[1], TrainConfig(episodes=1, max_plays=10))
        bad = json.loads(json.dumps(res.checkpoint))
        *rows, last = index
        target = bad["agents"][role][part]
        for row in rows:
            target = target[row]
        target[last] = value
        where = ", ".join(map(str, index))
        expected = rf"^{role}: {part}\[{where}\] must be finite, got {re.escape(repr(value))}$"
        with pytest.raises(CheckpointLayoutError, match=expected):
            load_checkpoint(bad)
        # From a file too, where the value is a bare NaN or Infinity token.
        path = tmp_path / "checkpoint.json"
        save_checkpoint(bad, path)
        with pytest.raises(CheckpointLayoutError, match=expected):
            load_checkpoint(path)

    def test_bad_config_value_rejected_on_load(self):
        res = train(builtin_scenarios()[1], TrainConfig(episodes=1, max_plays=10))
        bad = json.loads(json.dumps(res.checkpoint))
        bad["config"]["dt"] = 0
        with pytest.raises(ValueError, match="^dt must be finite and > 0, got 0$"):
            load_checkpoint(bad)


class TestEvaluate:
    def test_colocated_start_captures_instantly(self):
        sc = Scenario(
            name="touch", pursuer_start=(5.0, 5.0, 0.0), evader_start=(5.2, 5.0, 0.0),
            obstacle_count=0,
        )
        cfg = TrainConfig()
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        metrics, rows = evaluate(learners, rb, sc, cfg, runs=4, seed=0)
        assert metrics["capture_rate"] == 1.0
        assert metrics["capture_time_mean"] == 0.0
        assert all(row["capture_time"] == 0.0 for row in rows)

    def test_metrics_row_count_and_fields(self, tmp_path):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=25)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        metrics, rows = evaluate(
            learners, rb, sc, cfg, runs=20, seed=3, out_dir=tmp_path, record_steps=True
        )
        assert metrics["runs"] == 20
        assert len(rows) == 20
        assert 0.0 <= metrics["capture_rate"] <= 1.0
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "runs" / "run_000.json").exists()
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert len(lines) == 22  # schema comment + header + 20 rows

    def test_record_steps_without_out_dir_rejected_before_any_run(self, monkeypatch):
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=25)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        monkeypatch.setattr(training, "run_episode", lambda *a, **kw: pytest.fail("ran"))
        # The records would have nowhere to go.
        with pytest.raises(ValueError, match="^record_steps needs an out_dir"):
            evaluate(learners, rb, sc, cfg, runs=3, seed=4, record_steps=True)

    def test_reused_out_dir_rejected_before_any_run(self, tmp_path, monkeypatch):
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=25)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        evaluate(learners, rb, sc, cfg, runs=3, seed=4, out_dir=tmp_path, record_steps=True)
        before = tree_bytes(tmp_path)
        monkeypatch.setattr(training, "run_episode", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(FileExistsError, match=r"metrics\.json already exists"):
            evaluate(learners, rb, sc, cfg, runs=1, seed=4, out_dir=tmp_path, record_steps=True)
        assert tree_bytes(tmp_path) == before
        for name in training.EVALUATE_OUTPUTS:
            out = tmp_path / f"only_{name}"
            (out / name).mkdir(parents=True)
            with pytest.raises(FileExistsError, match=f"^{re.escape(str(out / name))} "):
                evaluate(learners, rb, sc, cfg, runs=1, out_dir=out)
            assert tree_bytes(out) == {Path(name): None}

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 1.5}, "seed must be an int, got 1.5"),
            ({"seed": True}, "seed must be an int, got True"),
            ({"runs": 0}, "runs must be >= 1, got 0"),
            ({"runs": 2.0}, "runs must be an int, got 2.0"),
        ],
    )
    def test_bad_seed_or_runs_rejected_before_any_run(self, monkeypatch, kwargs, message):
        cfg = TrainConfig(max_plays=5)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        played = []
        monkeypatch.setattr(training, "run_episode", lambda *args, **kw: played.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(learners, rb, builtin_scenarios()[1], cfg, **{"runs": 2, **kwargs})
        assert played == []

    def test_deterministic_runs_csv(self, tmp_path):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=25)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        evaluate(learners, rb, sc, cfg, runs=5, seed=9, out_dir=tmp_path / "a")
        evaluate(learners, rb, sc, cfg, runs=5, seed=9, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()

    def test_run_logs_match_across_run_counts_and_runs_csv(self, tmp_path):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=25)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        rng = np.random.default_rng(2)
        for learner in learners.values():
            learner.actor = rng.normal(0.0, 0.1, (2, rb.n_rules)).tolist()
        for runs in (3, 5):
            evaluate(
                learners, rb, sc, cfg, runs=runs, seed=11,
                out_dir=tmp_path / str(runs), record_steps=True,
            )
        names = [f"run_{i:03d}.json" for i in range(3)]
        assert sorted(path.name for path in (tmp_path / "3" / "runs").iterdir()) == names
        for name in names:
            assert (tmp_path / "3" / "runs" / name).read_bytes() == (
                tmp_path / "5" / "runs" / name
            ).read_bytes()

        # The stored logs rebuild runs.csv byte for byte.
        for runs in (3, 5):
            rows = []
            for i in range(runs):
                row = summary_row(load_episode(tmp_path / str(runs) / "runs" / f"run_{i:03d}.json"))
                row.pop("episode")
                rows.append({"run": i, **row})
            rebuilt = tmp_path / f"rebuilt_{runs}.csv"
            write_rows_csv(
                rebuilt, rows[0].keys(), [row.values() for row in rows], training.RUNS_CSV_SCHEMA
            )
            assert rebuilt.read_bytes() == (tmp_path / str(runs) / "runs.csv").read_bytes()

    def test_run_log_written_as_each_run_ends(self, tmp_path, monkeypatch):
        calls = []
        real_run_episode, real_export_json = training.run_episode, training.export_json

        def run_episode_spy(*args, **kwargs):
            calls.append("run")
            return real_run_episode(*args, **kwargs)

        def export_json_spy(log, path):
            calls.append(f"export {log.episode}")
            real_export_json(log, path)

        monkeypatch.setattr(training, "run_episode", run_episode_spy)
        monkeypatch.setattr(training, "export_json", export_json_spy)
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=10)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        evaluate(learners, rb, sc, cfg, runs=3, seed=1, out_dir=tmp_path, record_steps=True)
        assert calls == ["run", "export 0", "run", "export 1", "run", "export 2"]

    def test_evaluate_does_not_mutate_learners(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=30)
        rb = build_rulebase(cfg)
        learners = build_learners(cfg, rb.n_rules)
        learners["pursuer"].actor = [[0.01] * rb.n_rules for _ in range(2)]
        before = [list(row) for row in learners["pursuer"].actor]
        evaluate(learners, rb, sc, cfg, runs=2, seed=1)
        assert learners["pursuer"].actor == before


class TestTrainedProtocol:
    """Invariants of full-length training runs (shared session fixture)."""

    def test_pursuer_reward_trend_positive_for_most_seeds(self, trained_protocol):
        # learning-signal sanity: least-squares slope of the pursuer's mean
        # per-step combined reward over episodes, scenario 1
        seeds = trained_protocol["seeds"]
        positive = 0
        for seed in seeds:
            means = [
                row["pursuer_reward_mean"]
                for row in trained_protocol["results"][(1, seed)]["summaries"]
            ]
            slope = np.polyfit(np.arange(len(means)), np.asarray(means), 1)[0]
            positive += slope > 0.0
        assert positive >= 4, f"positive reward trend in only {positive}/5 seeds"

    def test_frozen_pursuer_never_beats_trained(self, trained_protocol):
        # ordering check: a zero-weight pursuer cannot out-capture a fully
        # trained one against the same trained evader
        entry = trained_protocol["results"][(1, trained_protocol["seeds"][0])]
        zero = build_learners(entry["config"], entry["rulebase"].n_rules)
        mixed = {"pursuer": zero["pursuer"], "evader": entry["learners"]["evader"]}
        frozen, _ = evaluate(
            mixed, entry["rulebase"], entry["scenario"], entry["config"], runs=10
        )
        assert frozen["capture_rate"] <= entry["metrics"]["capture_rate"]

    def test_training_ends_with_captures(self, trained_protocol):
        # by the end of scenario-1 training, most of the last ten episodes
        # should terminate in capture (for at least 4 of 5 seeds)
        good_seeds = 0
        for seed in trained_protocol["seeds"]:
            tail = trained_protocol["results"][(1, seed)]["summaries"][-10:]
            captured = sum(1 for row in tail if row["outcome"] == CAPTURED)
            good_seeds += captured >= 6
        assert good_seeds >= 4

    def test_each_training_run_within_time_budget(self, trained_protocol):
        # a 200-episode run must stay far under ten minutes on one core
        for key, entry in trained_protocol["results"].items():
            assert entry["train_seconds"] <= 600.0, key

    def test_every_episode_terminates_explicitly(self, trained_protocol):
        for entry in trained_protocol["results"].values():
            for row in entry["summaries"]:
                assert row["outcome"] in (CAPTURED, TIMEOUT)
                assert row["steps"] <= entry["config"].max_plays


class TestCLI:
    def test_scenarios_list(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "1:" in out and "4:" in out
        assert "(5.0, 30.0, 0.0)" in out

    def test_train_evaluate_replay_pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = cli_main(
            [
                "train", "--scenario", "1", "--seed", "3", "--out", str(out_dir),
                "--episodes", "2", "--max-plays", "30", "--quiet",
            ]
        )
        assert rc == 0
        assert (out_dir / "checkpoint.json").exists()

        eval_dir = tmp_path / "eval"
        rc = cli_main(
            [
                "evaluate", "--checkpoint", str(out_dir / "checkpoint.json"),
                "--runs", "3", "--seed", "7", "--out", str(eval_dir),
            ]
        )
        assert rc == 0
        assert (eval_dir / "metrics.json").exists()
        out = capsys.readouterr().out
        assert "capture rate" in out

        replay_dir = tmp_path / "replay"
        rc = cli_main(
            [
                "replay", "--log", str(out_dir / "episode_final.json"),
                "--export", "csv", "--out", str(replay_dir),
            ]
        )
        assert rc == 0
        assert (replay_dir / "episode_final_trajectory.csv").exists()
        rc = cli_main(
            [
                "replay", "--log", str(out_dir / "episode_final.json"),
                "--export", "json", "--out", str(replay_dir),
            ]
        )
        assert rc == 0
        reloaded = load_episode(replay_dir / "episode_final.json")
        assert reloaded == load_episode(out_dir / "episode_final.json")

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, r"\[Errno 2\] No such file or directory"),
            (lambda data: "{not json", "Expecting property name enclosed in double quotes"),
            (lambda data: "[]", "unsupported episode schema None"),
            (
                lambda data: json.dumps(
                    {
                        **data,
                        "records": [
                            dict(zip(STEP_FIELDS, row)) for row in zip(*data["records"].values())
                        ],
                        "schema": "peg3d.episode.v1",
                    }
                ),
                r"unsupported episode schema 'peg3d.episode.v1' \(expected peg3d.episode.v2\)$",
            ),
            (lambda data: json.dumps({**data, "bogus": 1}), "unknown EpisodeLog key 'bogus'$"),
            (
                lambda data: json.dumps({k: v for k, v in data.items() if k != "outcome"}),
                "missing EpisodeLog key 'outcome'$",
            ),
            (
                lambda data: json.dumps({**data, "records": {**data["records"], "bogus": [1]}}),
                "unknown StepRecord key 'bogus'$",
            ),
            (
                lambda data: json.dumps({**data, "records": [[1, 2]]}),
                r"records must be a dict of columns, got \[\[1, 2\]\]$",
            ),
            (
                lambda data: json.dumps({**data, "records": 5}),
                "records must be a dict of columns, got 5$",
            ),
            (
                lambda data: json.dumps(
                    {
                        **data,
                        "records": {**data["records"], "distance": data["records"]["distance"][1:]},
                    }
                ),
                r"records\.distance must hold 3 values \(steps\), got 2$",
            ),
            (
                lambda data: json.dumps({**data, "steps": 7}),
                r"records\.time must hold 7 values \(steps\), got 3$",
            ),
            (
                lambda data: json.dumps(
                    {
                        **data,
                        "records": {
                            **data["records"],
                            "pursuer_pos": [data["records"]["pursuer_pos"][0], 5, [1.0, 2.0, 3.0]],
                        },
                    }
                ),
                r"records\[1\]\.pursuer_pos must be a list of 3 floats, got 5$",
            ),
            (
                lambda data: json.dumps({**data, "records": None, "pursuer_start": 5}),
                "pursuer_start must be a list of floats, got 5$",
            ),
            (
                lambda data: json.dumps({**data, "steps": "abc"}),
                "steps must be an int, got 'abc'$",
            ),
        ],
        ids=[
            "no file", "not json", "a list", "v1 rows", "unknown key", "missing key", "column key",
            "rows", "records", "short column", "steps over records", "record value", "start value",
            "steps value",
        ],  # fmt: skip
    )
    def test_replay_rejects_a_bad_log(self, tmp_path, text, message):
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=3)
        log = run_episode(sc, cfg, [], *zero_weight_setup(cfg), None, record_steps=True)
        path = tmp_path / "episode.json"
        if text is not None:
            path.write_text(text(episode_dict_reference(log)))
        out_dir = tmp_path / "replay"
        with pytest.raises(SystemExit, match=f"^peg3d replay: {message}"):
            cli_main(["replay", "--log", str(path), "--export", "csv", "--out", str(out_dir)])
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "field, length",
        [
            (f"{role}_{name}", length)
            for role in ("pursuer", "evader")
            for name, n in (("pos", 3), ("u", 2), ("u_exec", 2))
            for length in range(5)
            if length != n
        ],
    )
    def test_replay_rejects_a_wrong_length_list(self, tmp_path, field, length):
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=3)
        log = run_episode(sc, cfg, [], *zero_weight_setup(cfg), None, record_steps=True)
        n = len(getattr(log.records[1], field))
        value = [1.0] * length
        data = episode_dict_reference(log)
        data["records"][field][1] = value
        path = tmp_path / "episode.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        message = f"peg3d replay: records[1].{field} must be a list of {n} floats, got {value!r}"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli_main(["replay", "--log", str(path), "--export", "csv", "--out", str(out_dir)])
        assert not out_dir.exists()

    @pytest.mark.parametrize("out", [None, "."])
    def test_replay_refuses_to_overwrite_its_log(self, tmp_path, monkeypatch, out):
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=3)
        log = run_episode(sc, cfg, [], *zero_weight_setup(cfg), None, record_steps=True)
        path = tmp_path / "episode.json"
        export_json(log, path)
        before = path.read_bytes()
        monkeypatch.chdir(tmp_path)
        argv = ["replay", "--log", str(path), "--export", "json"]
        with pytest.raises(SystemExit, match="^peg3d replay: .* would overwrite --log"):
            cli_main(argv if out is None else [*argv, "--out", out])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["episode.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_replay_exports_through_the_logs_module(self, tmp_path, monkeypatch, fmt):
        # Profilers rebind peg3d.logs.export_csv/export_json; replay must call those names.
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=3)
        log = run_episode(sc, cfg, [], *zero_weight_setup(cfg), None, record_steps=True)
        path = tmp_path / "episode.json"
        export_json(log, path)
        original, calls = getattr(logs, f"export_{fmt}"), []

        def wrapped(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(logs, f"export_{fmt}", wrapped)
        out_dir = tmp_path / "replay"
        argv = ["replay", "--log", str(path), "--export", fmt, "--out", str(out_dir)]
        assert cli_main(argv) == 0
        assert len(calls) == 1

    def test_replay_csv_needs_step_records(self, tmp_path):
        sc, cfg = builtin_scenarios()[1], TrainConfig(max_plays=3)
        log = run_episode(sc, cfg, [], *zero_weight_setup(cfg), None, record_steps=True)
        log.records = None
        path = tmp_path / "episode.json"
        export_json(log, path)
        out_dir = tmp_path / "out"
        message = f"peg3d replay: {path} has no step records"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli_main(["replay", "--log", str(path), "--export", "csv", "--out", str(out_dir)])
        assert not out_dir.exists()
        # The JSON export needs no records.
        argv = ["replay", "--log", str(path), "--export", "json", "--out", str(out_dir)]
        assert cli_main(argv) == 0
        assert load_episode(out_dir / "episode.json") == log

    def test_replay_csv_of_a_zero_step_log_writes_the_start_row(self, tmp_path):
        sc = Scenario(name="close", pursuer_start=(5.0, 5.0, 0.0), evader_start=(5.4, 5.0, 0.0))
        cfg = TrainConfig(max_plays=10)
        log = run_episode(sc, cfg, [], *zero_weight_setup(cfg), None, record_steps=True)
        assert (log.steps, log.records) == (0, [])
        path = tmp_path / "episode.json"
        export_json(log, path)
        out_dir = tmp_path / "out"
        argv = ["replay", "--log", str(path), "--export", "csv", "--out", str(out_dir)]
        assert cli_main(argv) == 0
        start = (log.elapsed, *log.pursuer_start, *log.evader_start, log.final_distance)
        lines = (out_dir / "episode_trajectory.csv").read_text().splitlines()
        assert lines[2:] == [",".join(map(repr, start))]
        assert len((out_dir / "episode_series.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("scenario", ["1", "other.ini"])
    def test_train_refuses_a_scenario_section_in_config(self, tmp_path, scenario):
        section = "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
        config = tmp_path / "run.ini"
        config.write_text("[train]\nepisodes = 1\nmax_plays = 5\n" + section)
        (tmp_path / "other.ini").write_text(section)
        arg = scenario if scenario.isdigit() else str(tmp_path / scenario)
        out_dir = tmp_path / "out"
        message = f"peg3d train: {config} has a [scenario] section; pass it as --scenario"
        argv = ["train", "--scenario", arg, "--config", str(config), "--out", str(out_dir)]
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli_main(argv)
        assert not out_dir.exists()

    def test_train_with_one_file_as_scenario_and_config(self, tmp_path, monkeypatch):
        (tmp_path / "run.ini").write_text(
            "[train]\nepisodes = 1\nmax_plays = 5\n"
            "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
        )
        monkeypatch.chdir(tmp_path)
        argv = ["train", "--scenario", "run.ini", "--config", "./run.ini", "--out", "out"]
        argv.append("--quiet")
        assert cli_main(argv) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenario"]["name"] == "custom"
        assert manifest["config"]["episodes"] == 1

    def test_train_with_config_and_scenario_file(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[train]\nepisodes = 2\nmax_plays = 20\nseed = 13\n")
        scenario = tmp_path / "scenario.ini"
        scenario.write_text(
            "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
            "obstacle_count = 0\n"
        )
        out_dir = tmp_path / "out"
        rc = cli_main(
            [
                "train", "--scenario", str(scenario), "--config", str(config),
                "--out", str(out_dir), "--quiet",
            ]
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["scenario"]["name"] == "custom"
        assert manifest["config"]["episodes"] == 2
        assert manifest["config"]["seed"] == 13

    def test_unknown_scenario_number_exits(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.ini").write_text("[train]\nepisodes = 1\nmax_plays = 5\n")
        argv = ["train", "--scenario", "1", "--config", "run.ini", "--out", "run", "--quiet"]
        assert cli_main(argv) == 0
        commands = {
            "train": ["train", "--quiet"],
            "evaluate": ["evaluate", "--checkpoint", "run/checkpoint.json", "--runs", "1"],
        }
        for command, argv in commands.items():
            for arg, message in [
                ("9", "unknown scenario 9; use 1-4 or a file path"),
                ("run.ini", "run.ini has no [scenario] section"),
            ]:
                line = f"peg3d {command}: {message}"
                with pytest.raises(SystemExit, match=f"^{re.escape(line)}$"):
                    cli_main([*argv, "--scenario", arg, "--out", "out"])
                assert not Path("out").exists()

    def test_train_refuses_run_settings_in_a_scenario_file_with_another_config(self, tmp_path):
        # --config would otherwise win, and the scenario file's settings be dropped.
        scenario = tmp_path / "f.ini"
        scenario.write_text(
            "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
            "[train]\nepisodes = 7\n[agents]\ncone_constraint = false\n"
        )
        config = tmp_path / "c.ini"
        config.write_text("[train]\nmax_plays = 5\n")
        out_dir = tmp_path / "out"
        message = f"peg3d train: {scenario} sets run settings; --config {config} would drop them"
        argv = ["train", "--scenario", str(scenario), "--config", str(config), "--quiet"]
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli_main([*argv, "--out", str(out_dir)])
        assert not out_dir.exists()

    def test_train_refuses_a_start_polar_angle_outside_zero_to_pi(self, tmp_path):
        scenario = tmp_path / "f.ini"
        scenario.write_text(
            "[scenario]\npursuer_start = 5 30 0\nevader_start = 5 5 0\nevader_heading = 1 -2\n"
        )
        out_dir = tmp_path / "out"
        message = "peg3d train: evader_heading polar angle must lie in [0, pi], got (1.0, -2.0)"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli_main(["train", "--scenario", str(scenario), "--out", str(out_dir), "--quiet"])
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--episodes", "episodes must be >= 1"),
            ("--max-plays", "max_plays must be >= 1"),
            ("--report-every", "report_every must be >= 1"),
        ],
    )
    def test_invalid_train_override_exits_before_training(self, tmp_path, flag, message):
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match=message):
            cli_main(["train", "--scenario", "1", flag, "0", "--out", str(out_dir), "--quiet"])
        assert not out_dir.exists()

    def test_negative_seed_exits_before_training(self, tmp_path):
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match="^peg3d train: seed must be >= 0, got -1$"):
            cli_main(["train", "--scenario", "1", "--seed", "-1", "--out", str(out_dir)])
        assert not out_dir.exists()

    def test_reused_train_out_exits_before_training(self, tmp_path):
        out = tmp_path / "t"
        run = ["train", "--scenario", "1", "--max-plays", "10", "--log-steps", "all",
               "--out", str(out), "--quiet"]  # fmt: skip
        cli_main([*run, "--episodes", "3"])
        before = tree_bytes(out)
        message = f"peg3d train: {out / 'manifest.json'} already exists"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}"):
            cli_main([*run, "--episodes", "1"])
        assert tree_bytes(out) == before

    def test_reused_evaluate_out_exits_before_any_run(self, tmp_path):
        cli_main(["train", "--scenario", "1", "--episodes", "1", "--max-plays", "10",
                  "--out", str(tmp_path / "t"), "--quiet"])  # fmt: skip
        out = tmp_path / "e"
        run = ["evaluate", "--checkpoint", str(tmp_path / "t" / "checkpoint.json"),
               "--save-logs", "--out", str(out)]  # fmt: skip
        cli_main([*run, "--runs", "3"])
        before = tree_bytes(out)
        message = f"peg3d evaluate: {out / 'metrics.json'} already exists"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}"):
            cli_main([*run, "--runs", "1"])
        assert tree_bytes(out) == before

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[train]\nepisods = 3\n", r"unknown key 'episods' in section \[train\]"),
            ("[train]\nepisodes = 0\n", "episodes must be >= 1"),
            ("[train]\nseed = -3\n", "seed must be >= 0, got -3$"),
            ("[learner]\nalpha_actor = 0.1\n", "actor rate must be below critic rate"),
            ("[learner]\nmfs_per_input = 1\n", "mfs_per_input must be >= 2, got 1$"),
            ("[agents]\npursuer_speed = -1\n", "pursuer_speed must be finite and > 0, got -1.0$"),
            ("[agents]\nevader_speed = inf\n", "evader_speed must be finite and > 0, got inf$"),
            ("[agents]\ncone_constraint = maybe\n", "expected a boolean"),
            # A value that does not cast to its field's type names its key and section.
            (
                "[train]\nseed = 1.5\n",
                r"invalid literal for int\(\) with base 10: '1.5' "
                r"\(key 'seed' in section \[train\] of .*run\.ini\)$",
            ),
            (
                "[arena]\nextents = 35 x 20\n",
                r"could not convert string to float: 'x' "
                r"\(key 'extents' in section \[arena\] of .*run\.ini\)$",
            ),
            ("[arena]\ndt = 0\n", "dt must be finite and > 0, got 0.0$"),
            ("[arena]\nmax_time = 100\n", r"unknown key 'max_time' in section \[arena\]"),
            # sensing_range is gone: it never limited what nearest_obstacle sees.
            ("[arena]\nsensing_range = 0\n", r"unknown key 'sensing_range' in section \[arena\]"),
            # NaN compares false with everything, so it must fail each positivity check;
            # inf must fail it too.
            ("[arena]\ndt = nan\n", "dt must be finite and > 0, got nan$"),
            ("[arena]\ndt = inf\n", "dt must be finite and > 0, got inf$"),
            ("[arena]\ncapture_distance = nan\n", "capture_distance must be finite and > 0"),
            ("[arena]\nextents = 35 nan 20\n", "arena extent y must be finite and > 0, got nan"),
            ("[arena]\nextents = 35 -1 20\n", "arena extent y must be finite and > 0, got -1.0"),
            ("[arena]\nextents = 35 35 inf\n", "arena extent z must be finite and > 0, got inf"),
            (
                "[arena]\nextents = 35 20\n",
                r"arena_extents must be 3 floats \(x y z\), got \(35.0, 20.0\)",
            ),
            ("[learner]\nsigma = nan\n", "sigma must be finite and > 0, got nan$"),
            ("[learner]\nsigma = inf\n", "sigma must be finite and > 0, got inf$"),
            ("[learner]\nalpha_critic = inf\n", "alpha_critic must be finite and > 0, got inf$"),
            ("[learner]\nalpha_actor = -1\n", "alpha_actor must be finite and > 0, got -1.0$"),
            *(
                (f"[reward]\n{name} = {value}\n", f"{name} must be finite and > 0, got {value}$")
                for name in (
                    "repulsion_coeff",
                    "attraction_coeff",
                    "success_coeff",
                    "repulsion_weight",
                    "attraction_weight",
                )
                for value in ("nan", "inf")
            ),
            # steering_mode is gone: a config that still sets it fails, even to the old default.
            (
                "[arena]\nsteering_mode = incremental\n",
                r"unknown key 'steering_mode' in section \[arena\]",
            ),
            ("[simulation]\ndt = 0.1\n", r"unknown config section \[simulation\]"),
            # configparser would load [DEFAULT] alone as no settings, and copy its keys
            # into every other section.
            ("[DEFAULT]\nepisodes = 3\n", r"unknown config section \[DEFAULT\] in .*run\.ini$"),
            (
                "[DEFAULT]\nseed = 3\n[train]\nmax_plays = 5\n",
                r"unknown config section \[DEFAULT\] in .*run\.ini$",
            ),
            ("episodes = 3\n", "File contains no section headers"),
        ],
    )
    def test_invalid_config_file_exits_before_training(self, tmp_path, ini, message):
        config = tmp_path / "run.ini"
        config.write_text(ini)
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match=f"^peg3d train: {message}"):
            cli_main(
                [
                    "train", "--scenario", "1", "--config", str(config),
                    "--out", str(out_dir), "--quiet",
                ]
            )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "starts, message",
        [
            ("pursuer_start = 50 50 50\nevader_start = 5 5 0\n", "pursuer_start must be 3 floats"),
            ("pursuer_start = 1 2\nevader_start = 5 5 0\n", "pursuer_start must be 3 floats"),
            (
                "pursuer_start = 5 30 0\nevader_start = 10 10 5\nobstacles = 10 10 5 1\n",
                "evader_start .* inside an obstacle",
            ),
            (
                "pursuer_start = 5 30 0\nevader_start = 5 5 0\nobstacles = 34.5 10 5 1\n",
                r"obstacle at \(34.5, 10.0, 5.0\) not fully inside arena",
            ),
            (
                "pursuer_start = 5 30 0\nevader_start = 5 5 0\npursuer_heading = 1 2 3\n",
                r"pursuer_heading must be 2 floats \(alpha theta\), got \(1.0, 2.0, 3.0\)",
            ),
            (
                "pursuer_start = 5 30 0\nevader_start = 5 5 0\npursuer_heading = nan 1\n",
                r"pursuer_heading must be finite, got \(nan, 1.0\)",
            ),
            (
                "pursuer_start = 5 30 0\nevader_start = 5 5 0\nevader_heading = 0 inf\n",
                r"evader_heading must be finite, got \(0.0, inf\)",
            ),
            (
                "pursuer_start = 5 30 0\nevader_start = 5 5 0\nobstacles = 10 10 5 nan\n",
                "obstacle radius must be finite and > 0, got nan",
            ),
            # Cases that set obstacle_count draw random obstacles.
            (
                "obstacle_count = 3\nobstacle_radius = 11\npursuer_start = 5 30 0\n"
                "evader_start = 5 5 0\n",
                r"obstacle_radius 11.0 exceeds half the arena extents \(35.0, 35.0, 20.0\)",
            ),
            (
                "obstacle_count = 3\nobstacle_radius = -1\npursuer_start = 5 30 0\n"
                "evader_start = 5 5 0\n",
                "obstacle_radius must be > 0, got -1.0",
            ),
            (
                "obstacle_count = -2\npursuer_start = 5 30 0\nevader_start = 5 5 0\n",
                "obstacle_count must be >= 0, got -2",
            ),
            (
                "obstacle_count = 3\nobstacle_margin = 100\npursuer_start = 5 30 0\n"
                "evader_start = 5 5 0\n",
                "no obstacle of radius 1.0 clears the starts by obstacle_margin 100.0 "
                "in 10000 draws",
            ),
            # A negative margin would let a random obstacle cover a start.
            (
                "obstacle_count = 3\nobstacle_radius = 3\nobstacle_margin = -5\n"
                "pursuer_start = 17 17 10\nevader_start = 5 5 0\n",
                "obstacle_margin must be finite and >= 0, got -5.0$",
            ),
            (
                "obstacle_count = 3\nobstacle_margin = nan\npursuer_start = 5 30 0\n"
                "evader_start = 5 5 0\n",
                "obstacle_margin must be finite and >= 0, got nan$",
            ),
            (
                "obstacle_count = 3\nobstacle_margin = inf\npursuer_start = 5 30 0\n"
                "evader_start = 5 5 0\n",
                "obstacle_margin must be finite and >= 0, got inf$",
            ),
        ],
    )
    def test_invalid_scenario_file_exits_before_training(self, tmp_path, starts, message):
        scenario = tmp_path / "scenario.ini"
        count = "" if "obstacle_count" in starts else "obstacle_count = 0\n"
        scenario.write_text("[scenario]\n" + count + starts)
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit, match=f"^peg3d train: {message}"):
            cli_main(
                [
                    "train", "--scenario", str(scenario), "--episodes", "3", "--max-plays", "200",
                    "--out", str(out_dir), "--quiet",
                ]
            )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "settings",
        ["[agents]\ncone_constraint = false\n", "[train]\nseed = 4\n[learner]\nsigma = 0.2\n"],
        ids=["agents", "train-learner"],
    )
    def test_evaluate_refuses_run_settings_in_a_scenario_file(self, tmp_path, settings):
        run_dir = tmp_path / "run"
        argv = ["train", "--scenario", "1", "--episodes", "1", "--max-plays", "5"]
        cli_main([*argv, "--out", str(run_dir), "--quiet"])
        section = "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
        evaluate = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"), "--runs", "1"]
        scenario = tmp_path / "scenario.ini"
        scenario.write_text("[config]\nschema = peg3d.config.v1\n" + section + settings)
        message = f"peg3d evaluate: {scenario} sets run settings; evaluate uses the checkpoint's"
        out_dir = tmp_path / "eval"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            cli_main([*evaluate, "--scenario", str(scenario), "--out", str(out_dir)])
        assert not out_dir.exists()
        # The [scenario] and [config] sections alone are taken.
        scenario.write_text("[config]\nschema = peg3d.config.v1\n" + section)
        assert cli_main([*evaluate, "--scenario", str(scenario), "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "metrics.json").read_text())["scenario"] == "custom"

    def test_each_ini_file_is_parsed_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.ini").write_text(
            "[train]\nepisodes = 1\nmax_plays = 5\n"
            "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
        )
        Path("scenario.ini").write_text(
            "[scenario]\nname = custom\npursuer_start = 5 30 0\nevader_start = 5 5 0\n"
        )
        parsed = []
        read_file = configparser.ConfigParser.read_file

        def counted(parser, fh, source=None):
            parsed.append(Path(fh.name).name)
            return read_file(parser, fh, source)

        monkeypatch.setattr(configparser.ConfigParser, "read_file", counted)
        argv = ["train", "--scenario", "run.ini", "--config", "./run.ini", "--out", "run"]
        assert cli_main([*argv, "--quiet"]) == 0
        assert parsed == ["run.ini"]
        parsed.clear()
        argv = ["evaluate", "--checkpoint", "run/checkpoint.json", "--runs", "1"]
        assert cli_main([*argv, "--scenario", "scenario.ini"]) == 0
        assert parsed == ["scenario.ini"]

    def test_evaluate_rejects_a_scenario_outside_the_arena(self, tmp_path):
        run_dir = tmp_path / "run"
        cli_main(
            [
                "train", "--scenario", "1", "--episodes", "1", "--max-plays", "5",
                "--out", str(run_dir), "--quiet",
            ]
        )
        scenario = tmp_path / "scenario.ini"
        scenario.write_text("[scenario]\npursuer_start = 50 50 50\nevader_start = 5 5 0\n")
        with pytest.raises(SystemExit, match="^peg3d evaluate: pursuer_start must be 3 floats"):
            cli_main(
                [
                    "evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--scenario", str(scenario), "--runs", "1",
                ]
            )

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("config", "bogus"), 1, "unknown TrainConfig key 'bogus'"),
            (("config", "learner", "bogus"), 1, "unknown LearnerConfig key 'bogus'"),
            (("config", "reward", "bogus"), 1, "unknown RewardConfig key 'bogus'"),
            (("scenario", "bogus"), 1, "unknown Scenario key 'bogus'"),
            (("config", "learner", "alpha_actor"), 0.9, "actor rate must be below critic rate"),
            (("scenario", "pursuer_start"), DELETE, "missing Scenario key 'pursuer_start'$"),
            (("config", "episodes"), "5", "episodes must be an int, got '5'$"),
            (
                ("scenario", "pursuer_start"),
                5,
                r"pursuer_start must be 3 floats \(x y z\), got 5$",
            ),
            (("agents",), DELETE, "checkpoint has no 'agents'$"),
            (("agents", "evader", "critic"), DELETE, "checkpoint has no 'agents.evader.critic'$"),
            (("config", "max_time"), 100.0, "unknown TrainConfig key 'max_time'$"),
            (
                ("scenario", "obstacle_margin"),
                -5.0,
                "obstacle_margin must be finite and >= 0, got -5.0$",
            ),
            (("config", "sensing_range"), 35.0, "unknown TrainConfig key 'sensing_range'$"),
            (("config", "capture_distance"), math.nan, "capture_distance must be finite and > 0"),
            (("config", "dt"), math.inf, "dt must be finite and > 0, got inf$"),
            (("config", "evader_speed"), math.inf, "evader_speed must be finite and > 0, got inf$"),
            (("config", "learner", "sigma"), math.inf, "sigma must be finite and > 0, got inf$"),
            (
                ("config", "learner", "alpha_actor"),
                -1.0,
                "alpha_actor must be finite and > 0, got -1.0$",
            ),
            (
                ("config", "reward", "success_coeff"),
                math.inf,
                "success_coeff must be finite and > 0, got inf$",
            ),
            (
                ("config", "learner", "distance_domain"),
                [0.0, 35.0],
                "unknown LearnerConfig key 'distance_domain'$",
            ),
        ],
    )
    def test_evaluate_rejects_a_bad_checkpoint(self, tmp_path, keys, value, message):
        run_dir = tmp_path / "run"
        cli_main(
            [
                "train", "--scenario", "1", "--episodes", "1", "--max-plays", "5",
                "--out", str(run_dir), "--quiet",
            ]
        )
        path = run_dir / "checkpoint.json"
        checkpoint = json.loads(path.read_text())
        *parents, last = keys
        target = checkpoint
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        path.write_text(json.dumps(checkpoint))
        out_dir = tmp_path / "eval"
        with pytest.raises(SystemExit, match=f"^peg3d evaluate: {message}"):
            cli_main(["evaluate", "--checkpoint", str(path), "--runs", "1", "--out", str(out_dir)])
        assert not out_dir.exists()

    @pytest.mark.parametrize("part", ["actor", "critic"])
    def test_evaluate_rejects_non_finite_weights_before_any_run(self, tmp_path, monkeypatch, part):
        run_dir = tmp_path / "run"
        cli_main(
            [
                "train", "--scenario", "1", "--episodes", "1", "--max-plays", "5",
                "--out", str(run_dir), "--quiet",
            ]
        )
        path = run_dir / "checkpoint.json"
        checkpoint = json.loads(path.read_text())
        weights = checkpoint["agents"]["evader"][part]
        if part == "actor":
            weights[1] = [math.nan] * len(weights[1])
        else:
            weights[-1] = math.inf
        path.write_text(json.dumps(checkpoint))

        def no_episode(*args, **kwargs):
            raise AssertionError("a run was played")

        monkeypatch.setattr(training, "run_episode", no_episode)
        expected = {
            "actor": r"actor\[1, 0\] must be finite, got nan",
            "critic": r"critic\[624\] must be finite, got inf",
        }
        out_dir = tmp_path / "eval"
        with pytest.raises(SystemExit, match=f"^peg3d evaluate: evader: {expected[part]}$"):
            cli_main(["evaluate", "--checkpoint", str(path), "--runs", "1", "--out", str(out_dir)])
        assert not out_dir.exists()

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_evaluate_runs_below_one_exits_before_loading(self, tmp_path, runs):
        # The checkpoint does not exist, so loading it first would raise instead.
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="peg3d evaluate: runs must be >= 1"):
            cli_main(["evaluate", "--checkpoint", str(missing), "--runs", runs])

    def test_evaluate_negative_seed_exits_before_loading(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="^peg3d evaluate: seed must be >= 0, got -1$"):
            cli_main(["evaluate", "--checkpoint", str(missing), "--seed", "-1"])

    def test_evaluate_save_logs_without_out_exits_before_loading(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="^peg3d evaluate: --save-logs needs --out$"):
            cli_main(["evaluate", "--checkpoint", str(missing), "--save-logs"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--scenario", "missing.ini", "--quiet"],
            ["evaluate", "--checkpoint", "missing.json", "--save-logs"],
            ["replay", "--log", "missing.json", "--export", "csv"],
        ],
        ids=["train", "evaluate", "replay"],
    )
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_naming_a_file_exits_before_any_work(self, tmp_path, monkeypatch, argv, out):
        # Every input is missing, so any work before the --out check would fail otherwise.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept")
        with pytest.raises(SystemExit, match=f"^peg3d {argv[0]}: --out {out} is not a directory$"):
            cli_main([*argv, "--out", out])
        assert (tmp_path / "afile").read_text() == "kept"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "peg3d.cli", "scenarios", "list"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "1:" in proc.stdout


class TestSummaryRow:
    def test_column_set(self):
        cfg = TrainConfig(max_plays=3)
        rb, learners = zero_weight_setup(cfg)
        row = summary_row(run_episode(builtin_scenarios()[1], cfg, [], rb, learners, None))
        assert row["steps"] == 3
        assert row["outcome"] == TIMEOUT
        for key in (
            "final_distance", "capture_time", "pursuer_reward_mean",
            "pursuer_path_length", "pursuer_cone_fraction", "evader_entropy_mean",
        ):
            assert key in row

    def test_csv_headers_pinned(self, tmp_path):
        columns = (
            "outcome,steps,elapsed,final_distance,capture_time,"
            "pursuer_reward_total,evader_reward_total,pursuer_reward_mean,evader_reward_mean,"
            "pursuer_path_length,evader_path_length,pursuer_min_clearance,evader_min_clearance,"
            "pursuer_collision_steps,evader_collision_steps,"
            "pursuer_cone_fraction,evader_cone_fraction,pursuer_td_abs_mean,evader_td_abs_mean,"
            "pursuer_entropy_mean,evader_entropy_mean"
        )
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(episodes=1, max_plays=5)
        res = train(sc, cfg, out_dir=tmp_path / "train")
        evaluate(res.learners, res.rulebase, sc, cfg, runs=1, out_dir=tmp_path / "eval")
        episodes = (tmp_path / "train" / "episodes.csv").read_text().splitlines()
        runs = (tmp_path / "eval" / "runs.csv").read_text().splitlines()
        assert episodes[:2] == ["# schema=peg3d.episodes.v1", "episode," + columns]
        assert runs[:2] == ["# schema=peg3d.runs.v1", "run," + columns]
