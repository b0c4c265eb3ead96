"""Command-line harness: train, evaluate, replay, and scenario listing."""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

from .logs import export_episode, load_episode
from .scenarios import (
    FREEZE_MODES,
    LOG_STEPS_MODES,
    TrainConfig,
    builtin_scenarios,
    check_scenario,
    load_config,
)
from .training import build_learners, build_rulebase, evaluate, load_checkpoint, train

# Bad input files and values: each exits with "peg3d <command>: <message>".
_BAD_INPUT = (ValueError, OSError, configparser.Error)


def _resolve_scenario(arg: str, config_path):
    """``--scenario`` takes a built-in number (1-4) or a config-file path."""
    config, scenario = (TrainConfig(), None) if config_path is None else load_config(config_path)
    if arg.isdigit():
        presets = builtin_scenarios()
        number = int(arg)
        if number not in presets:
            raise SystemExit(f"unknown scenario {number}; use 1-{max(presets)} or a file path")
        return presets[number], config
    file_config, file_scenario = load_config(arg)
    if file_scenario is None:
        raise SystemExit(f"{arg} has no [scenario] section")
    # A scenario file may also carry run settings; an explicit --config wins.
    return file_scenario, config if config_path is not None else file_config


def _cmd_train(args):
    if args.report_every < 1:
        raise SystemExit("peg3d train: report_every must be >= 1")
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "episodes", "max_plays", "freeze", "log_steps")
        if getattr(args, name) is not None
    }
    try:
        scenario, config = _resolve_scenario(args.scenario, args.config)
        # replace() builds a new config, so its validation runs on the overrides.
        config = dataclasses.replace(config, **overrides)
        # Building the rule base and learners runs their own checks on [learner].
        build_learners(config, build_rulebase(config).n_rules)
        check_scenario(scenario, config)
    except _BAD_INPUT as exc:
        raise SystemExit(f"peg3d train: {exc}") from None

    def progress(ep, log):
        if args.quiet:
            return
        if (ep + 1) % args.report_every == 0 or ep + 1 == config.episodes:
            print(
                f"episode {ep + 1:>4}/{config.episodes}  {log.outcome:<8} "
                f"steps={log.steps:<5} final_d={log.final_distance:7.3f} "
                f"reward_mean(p)={log.reward_mean['pursuer']:8.4f}"
            )

    result = train(scenario, config, out_dir=args.out, progress=progress)
    captured = sum(1 for row in result.summaries if row["outcome"] == "captured")
    print(
        f"{scenario.name}: {config.episodes} episodes, "
        f"{captured} captured ({captured / config.episodes:.0%}), seed={config.seed}"
    )
    if args.out:
        print(f"wrote manifest, episode summaries, and checkpoint to {args.out}")
    return 0


def _cmd_evaluate(args):
    if args.runs < 1:
        raise SystemExit("peg3d evaluate: runs must be >= 1")
    if args.save_logs and args.out is None:
        raise SystemExit("peg3d evaluate: --save-logs needs --out")
    try:
        learners, rulebase, scenario, config = load_checkpoint(args.checkpoint)
        if args.scenario is not None:
            scenario, _ = _resolve_scenario(args.scenario, None)
        check_scenario(scenario, config)
    except _BAD_INPUT as exc:
        raise SystemExit(f"peg3d evaluate: {exc}") from None
    metrics, rows = evaluate(
        learners,
        rulebase,
        scenario,
        config,
        runs=args.runs,
        seed=args.seed,
        out_dir=args.out,
        record_steps=args.save_logs,
    )
    print(f"{scenario.name}: {metrics['runs']} runs, capture rate {metrics['capture_rate']:.2f}")
    if metrics["capture_time_mean"] is not None:
        print(
            f"capture time {metrics['capture_time_mean']:.1f} s "
            f"(std {metrics['capture_time_std']:.1f})"
        )
    print(
        f"path length pursuer {metrics['pursuer_path_mean']:.1f} m, "
        f"evader {metrics['evader_path_mean']:.1f} m; "
        f"collision steps total {metrics['collision_steps_total']}"
    )
    if args.out:
        print(f"wrote metrics and per-run rows to {args.out}")
    return 0


def _cmd_replay(args):
    log = load_episode(args.log)
    out_dir = args.out if args.out is not None else Path(args.log).parent
    stem = Path(args.log).stem
    paths = export_episode(log, args.export, out_dir, stem=stem)
    for path in paths:
        print(path)
    return 0


def _cmd_scenarios(args):
    if args.action != "list":
        raise SystemExit("usage: peg3d scenarios list")
    for number, sc in sorted(builtin_scenarios().items()):
        print(
            f"{number}: pursuer {tuple(map(float, sc.pursuer_start))} -> "
            f"evader {tuple(map(float, sc.evader_start))}, "
            f"{sc.obstacle_count} random obstacles r={sc.obstacle_radius}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peg3d",
        description="3D pursuit-evasion game: fuzzy actor-critic training harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train both agents on a scenario")
    p_train.add_argument("--scenario", required=True, help="built-in number 1-4 or a config file")
    p_train.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p_train.add_argument("--config", default=None, help="INI config file with run settings")
    p_train.add_argument("--out", default=None, help="output directory for logs and checkpoint")
    p_train.add_argument("--episodes", type=int, default=None)
    p_train.add_argument("--max-plays", type=int, default=None, dest="max_plays")
    p_train.add_argument("--freeze", choices=FREEZE_MODES, default=None)
    p_train.add_argument("--log-steps", choices=LOG_STEPS_MODES, default=None)
    p_train.add_argument("--report-every", type=int, default=20)
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="run noise-free tests from a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--runs", type=int, default=20)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--scenario", default=None, help="override the checkpoint scenario")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--save-logs", action="store_true", dest="save_logs")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_replay = sub.add_parser("replay", help="export a stored episode log")
    p_replay.add_argument("--log", required=True, help="episode JSON produced by train/evaluate")
    p_replay.add_argument("--export", choices=("csv", "json"), required=True)
    p_replay.add_argument("--out", default=None)
    p_replay.set_defaults(func=_cmd_replay)

    p_sc = sub.add_parser("scenarios", help="inspect built-in scenarios")
    p_sc.add_argument("action", choices=("list",))
    p_sc.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
