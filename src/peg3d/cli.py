"""Command-line harness: train, evaluate, replay, and scenario listing."""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import sys
from pathlib import Path

# perfbench/ times replay by rebinding ``cli.load_episode`` and the ``logs``
# module's exporters, so replay calls the exporters through ``logs``.
from . import logs
from ._fields import check_int
from .logs import load_episode
from .scenarios import (
    FREEZE_MODES,
    LOG_STEPS_MODES,
    TrainConfig,
    builtin_scenarios,
    check_scenario,
    load_config,
)
from .training import evaluate, load_checkpoint, train

__all__ = ["build_parser", "main"]

# Bad input files and values: each exits with "peg3d <command>: <message>".
_BAD_INPUT = (ValueError, OSError, configparser.Error)


def _resolve_scenario(arg: str, config_path):
    """``--scenario`` takes a built-in number (1-4) or a config-file path."""
    config, scenario = (TrainConfig(), None) if config_path is None else load_config(config_path)
    if scenario is not None and (arg.isdigit() or not Path(arg).samefile(config_path)):
        raise ValueError(f"{config_path} has a [scenario] section; pass it as --scenario")
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


def _run_sections(path) -> list[str]:
    """The sections of INI file ``path`` that set run settings: all but [config] and [scenario]."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)
    return [s for s in parser.sections() if s not in ("config", "scenario") and parser.options(s)]


def _cmd_train(args):
    # The train options named after TrainConfig fields override them when given.
    names = (f.name for f in dataclasses.fields(TrainConfig))
    overrides = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    try:
        check_int("report_every", args.report_every, 1)
        scenario, config = _resolve_scenario(args.scenario, args.config)
        # replace() builds a new config, so its validation runs on the overrides.
        config = dataclasses.replace(config, **overrides)
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
    try:
        check_int("runs", args.runs, 1)
        if args.seed is not None:
            check_int("seed", args.seed, 0)
        if args.save_logs and args.out is None:
            raise ValueError("--save-logs needs --out")
        learners, rulebase, scenario, config = load_checkpoint(args.checkpoint)
        if args.scenario is not None:
            scenario, _ = _resolve_scenario(args.scenario, None)
            sections = [] if args.scenario.isdigit() else _run_sections(args.scenario)
            if sections:
                listed = ", ".join(f"[{section}]" for section in sections)
                raise ValueError(
                    f"{args.scenario} sets run settings ({listed}); evaluate uses the checkpoint's"
                )
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
    log_path = Path(args.log)
    out_dir = Path(args.out) if args.out is not None else log_path.parent
    # CSV exports add a suffix to the log's stem; only the JSON export can land on the log.
    target = out_dir / f"{log_path.stem}.json"
    if args.export == "json" and target.resolve() == log_path.resolve():
        raise SystemExit(f"peg3d replay: the export {target} would overwrite --log; choose --out")
    try:
        log = load_episode(args.log)
        if args.export == "csv" and log.records is None:
            raise ValueError(f"{args.log} has no step records")
    except _BAD_INPUT as exc:
        raise SystemExit(f"peg3d replay: {exc}") from None
    if args.export == "json":
        logs.export_json(log, target)
        paths = [target]
    else:
        paths = logs.export_csv(log, out_dir, stem=log_path.stem)
    for path in paths:
        print(path)
    return 0


def _cmd_scenarios(args):
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


# main's parser, built on its first call.  Parsing leaves a parser as it was,
# and building one takes about a millisecond, which a process that calls main
# once per replayed log would otherwise pay each time.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = getattr(args, "out", None)
    if out is not None:
        # A file at --out or above it would only fail when the outputs are
        # written, after every episode has run; stop before any work instead.
        existing = next(p for p in (Path(out), *Path(out).parents) if p.exists())
        if not existing.is_dir():
            raise SystemExit(f"peg3d {args.command}: --out {out} is not a directory")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
