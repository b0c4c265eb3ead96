import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from peg3d import training
from peg3d.cli import main as cli_main
from peg3d.env import CAPTURED, TIMEOUT
from peg3d.logs import export_csv, export_json, load_episode, summary_row, write_rows_csv
from peg3d.scenarios import Scenario, TrainConfig, builtin_scenarios
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

# Marks a checkpoint key that a test deletes instead of setting.
DELETE = object()


def zero_weight_setup(config):
    rulebase = build_rulebase(config)
    return rulebase, build_learners(config, rulebase.n_rules)


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

    def test_training_updates_weights_and_freeze_blocks(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=40, freeze="evader")
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, np.random.default_rng(3))
        assert learners["pursuer"].critic.any()
        assert not learners["evader"].critic.any()
        assert not learners["evader"].actor.any()
        assert log.td_abs_mean["pursuer"] is not None
        assert log.td_abs_mean["evader"] is None

    def test_cone_fractions_full_compliance_for_zero_policy(self):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(max_plays=20)
        rb, learners = zero_weight_setup(cfg)
        log = run_episode(sc, cfg, [], rb, learners, None)
        # straight chase along the axis: pursuer aligned, evader pointed away
        assert log.cone_fraction["pursuer"] == 1.0
        assert log.cone_fraction["evader"] == 1.0

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
        log = run_episode(sc, cfg, [], rb, learners, np.random.default_rng(5), record_steps=True)
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
            builtin_scenarios()[1], cfg, [], rb, learners, np.random.default_rng(4),
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
        assert log.to_dict() == dataclasses.asdict(log)

        # Reference: the exports as written with a deep copy through asdict.
        ref = tmp_path / "ref"
        ref.mkdir()
        with open(ref / "episode.json", "w") as fh:
            json.dump(dataclasses.asdict(log), fh, indent=1)
            fh.write("\n")
        summary = dataclasses.asdict(log)
        summary.pop("records")
        with open(ref / "ep_summary.json", "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")

        export_json(log, tmp_path / "episode.json")
        export_csv(log, tmp_path, stem="ep")
        for name in ("episode.json", "ep_summary.json"):
            assert (tmp_path / name).read_bytes() == (ref / name).read_bytes()

    def test_json_round_trip_identity(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "episode.json"
        export_json(log, path)
        assert load_episode(path) == log

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

    def test_byte_identical_reruns(self, tmp_path):
        sc = builtin_scenarios()[1]
        cfg = TrainConfig(episodes=3, max_plays=40, seed=21)
        train(sc, cfg, out_dir=tmp_path / "a")
        train(sc, cfg, out_dir=tmp_path / "b")
        for name in ("episodes.csv", "manifest.json", "checkpoint.json", "episode_final.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_frozen_pursuer_stays_zero(self):
        sc = builtin_scenarios()[1]
        res = train(sc, TrainConfig(episodes=2, max_plays=40, freeze="pursuer"))
        assert not res.learners["pursuer"].actor.any()
        assert res.learners["evader"].critic.any()


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

    def test_v2_layout_pinned(self):
        sc = builtin_scenarios()[1]
        res = train(sc, TrainConfig(episodes=1, max_plays=10, seed=3))
        checkpoint = res.checkpoint
        assert set(checkpoint) == {"schema", "version", "scenario", "config", "agents"}
        assert checkpoint["schema"] == "peg3d.checkpoint.v2"
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
        expected = r"'peg3d.checkpoint.v1' \(expected peg3d.checkpoint.v2\)"
        with pytest.raises(ValueError, match=f"^unsupported checkpoint schema {expected}$"):
            load_checkpoint(v1)

    def test_unsupported_schema_rejected(self):
        sc = builtin_scenarios()[1]
        res = train(sc, TrainConfig(episodes=1, max_plays=10))
        bad = dict(res.checkpoint, schema="peg3d.checkpoint.v0")
        with pytest.raises(ValueError, match="schema"):
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
            learner.actor[:] = rng.normal(0.0, 0.1, learner.actor.shape)
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
            write_rows_csv(rebuilt, list(rows[0].keys()), rows, training.RUNS_CSV_SCHEMA)
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
        learners["pursuer"].actor[:] = 0.01
        before = learners["pursuer"].actor.copy()
        evaluate(learners, rb, sc, cfg, runs=2, seed=1)
        assert np.array_equal(learners["pursuer"].actor, before)


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

    def test_unknown_scenario_number_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["train", "--scenario", "9", "--quiet"])

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

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[train]\nepisods = 3\n", r"unknown key 'episods' in section \[train\]"),
            ("[train]\nepisodes = 0\n", "episodes must be >= 1"),
            ("[learner]\nalpha_actor = 0.1\n", "actor rate must be below critic rate"),
            ("[learner]\nmfs_per_input = 1\n", "need at least 2 membership functions"),
            ("[agents]\npursuer_speed = -1\n", "pursuer_speed must be > 0"),
            ("[agents]\ncone_constraint = maybe\n", "expected a boolean"),
            ("[arena]\ndt = 0\n", "dt must be positive"),
            # steering_mode is gone: a config that still sets it fails, even to the old default.
            (
                "[arena]\nsteering_mode = incremental\n",
                r"unknown key 'steering_mode' in section \[arena\]",
            ),
            ("[simulation]\ndt = 0.1\n", r"unknown config section \[simulation\]"),
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
            (("config", "episodes"), "5", "TrainConfig key 'episodes' must be int, got '5'$"),
            (
                ("scenario", "pursuer_start"),
                5,
                r"Scenario key 'pursuer_start' must be tuple\[float, float, float\], got 5$",
            ),
            (("agents",), DELETE, "checkpoint has no 'agents'$"),
            (("agents", "evader", "critic"), DELETE, "checkpoint has no 'agents.evader.critic'$"),
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

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_evaluate_runs_below_one_exits_before_loading(self, tmp_path, runs):
        # The checkpoint does not exist, so loading it first would raise instead.
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="peg3d evaluate: runs must be >= 1"):
            cli_main(["evaluate", "--checkpoint", str(missing), "--runs", runs])

    def test_evaluate_save_logs_without_out_exits_before_loading(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="^peg3d evaluate: --save-logs needs --out$"):
            cli_main(["evaluate", "--checkpoint", str(missing), "--save-logs"])

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
