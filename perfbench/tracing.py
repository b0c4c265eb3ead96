"""Layer-by-layer trace, timed from outside the program.

:class:`Tracer` rebinds the public functions that ``peg3d.training`` (and
``peg3d.cli`` / ``peg3d.logs``) call, plus the methods of ``RuleBase`` and
``FuzzyActorCritic``, with wrappers that time and count each call.  Nothing
under ``src/`` changes: the wrappers replace module and class attributes while
one unit of work runs, and :meth:`Tracer.restore` puts every original back.

Each wrapper records its call's duration and the part of it spent in nested
wrapped calls, so a span's self time is its duration minus its children.
What a wrapper does after the call (bookkeeping, the observers that count
active rules or saturated actions) is excluded from its parent's duration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from peg3d import cli, logs, training
from peg3d.env import TURN_LIMIT
from peg3d.fuzzy import RuleBase
from peg3d.learner import FuzzyActorCritic


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0  # seconds inside the call, wrapper costs of children excluded
    child: float = 0.0  # seconds of that spent in nested wrapped calls


def _clamp(value: float) -> float:
    return max(-TURN_LIMIT, min(TURN_LIMIT, value))


class Tracer:
    """Timing and counting wrappers around peg3d's layer boundaries."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.active_rules = 0
        self.rule_slots = 0
        self.saturated_acts = 0
        self.cone_overrides = 0
        self.steps = 0
        self.episodes = 0
        self.captures = 0
        self._stack = [[0.0, 0.0]]  # per open span: [child seconds, excluded seconds]
        self._saved: list[tuple[object, str, object]] = []

    def _targets(self):
        """(owner, attribute, span name, observer) for every rebound callable."""
        return (
            (training, "run_episode", "training.run_episode", self._observe_episode),
            (training, "extract_inputs", "learner.extract_inputs", None),
            (training, "firing_entropy", "fuzzy.firing_entropy", None),
            (training, "step_agent", "env.step_agent", None),
            (training, "cone_limited_command", "env.cone_limited_command", self._observe_cone),
            (training, "nearest_obstacle", "env.nearest_obstacle", None),
            (training, "check_termination", "env.check_termination", None),
            (training, "total_reward", "reward.total_reward", None),
            (training, "realize_obstacles", "scenarios.realize_obstacles", None),
            (training, "build_arena", "scenarios.build_arena", None),
            (training, "initial_states", "scenarios.initial_states", None),
            (training, "StepRecord", "logs.step_record", None),
            (training, "summary_row", "logs.summary_row", None),
            (training, "export_json", "logs.export_json", None),
            (training, "save_checkpoint", "training.save_checkpoint", None),
            (cli, "load_checkpoint", "training.load_checkpoint", None),
            (cli, "load_episode", "logs.load_episode", None),
            (logs, "export_csv", "logs.export_csv", None),
            (RuleBase, "fire", "fuzzy.fire", self._observe_fire),
            (FuzzyActorCritic, "act", "learner.act", self._observe_act),
            (FuzzyActorCritic, "td_error", "learner.td_error", None),
            (FuzzyActorCritic, "update_critic", "learner.update_critic", None),
            (FuzzyActorCritic, "update_actor", "learner.update_actor", None),
        )

    def _wrap(self, fn, name, observe):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            elapsed = t1 - t0 - frame[1]
            span.calls += 1
            span.total += elapsed
            span.child += frame[0]
            if observe is not None:
                observe(result, args, kwargs)
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += clock() - t1
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, observe in self._targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._saved)
        self._saved.clear()
        return restored

    # -- observers: run after the call, outside every timed span ------------

    def _observe_fire(self, phi, args, kwargs):
        self.active_rules += int(np.count_nonzero(phi))
        self.rule_slots += phi.size

    def _observe_act(self, result, args, kwargs):
        if max(map(abs, result[0].tolist())) > args[0].action_limit:
            self.saturated_acts += 1

    def _observe_cone(self, result, args, kwargs):
        _, dalpha, dtheta = args[:3]
        if tuple(result) != (_clamp(dalpha), _clamp(dtheta)):
            self.cone_overrides += 1

    def _observe_episode(self, log, args, kwargs):
        self.steps += log.steps
        self.episodes += 1
        self.captures += log.outcome == "captured"

    # -- per-layer metrics ---------------------------------------------------

    def _mean(self, name: str, scale: float) -> float:
        span = self.spans[name]
        return span.total / span.calls * scale if span.calls else 0.0

    def _share(self, part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced since construction.

        ``*_us`` and ``*_ms`` are the mean time per call at that boundary,
        except where the name says per step or per episode.
        """
        us, ms = 1e6, 1e3
        span = self.spans
        episode = span["training.run_episode"]
        resets = sum(
            span[name].total
            for name in (
                "scenarios.realize_obstacles",
                "scenarios.build_arena",
                "scenarios.initial_states",
            )
        )
        return {
            "fuzzy.fire_us": self._mean("fuzzy.fire", us),
            "fuzzy.fire_calls": span["fuzzy.fire"].calls,
            "fuzzy.firing_entropy_us": self._mean("fuzzy.firing_entropy", us),
            "fuzzy.active_rule_fraction": self._share(self.active_rules, self.rule_slots),
            "learner.act_us": self._mean("learner.act", us),
            "learner.td_error_us": self._mean("learner.td_error", us),
            "learner.update_critic_us": self._mean("learner.update_critic", us),
            "learner.update_actor_us": self._mean("learner.update_actor", us),
            "learner.update_calls": span["learner.update_critic"].calls,
            "learner.extract_inputs_us": self._mean("learner.extract_inputs", us),
            "learner.saturation_fraction": self._share(
                self.saturated_acts, span["learner.act"].calls
            ),
            "env.step_agent_us": self._mean("env.step_agent", us),
            "env.cone_limited_command_us": self._mean("env.cone_limited_command", us),
            "env.cone_override_fraction": self._share(
                self.cone_overrides, span["env.cone_limited_command"].calls
            ),
            "env.nearest_obstacle_us": self._mean("env.nearest_obstacle", us),
            "env.check_termination_us": self._mean("env.check_termination", us),
            "reward.total_reward_us": self._mean("reward.total_reward", us),
            "scenarios.episode_reset_us": self._share(resets, self.episodes) * us,
            "training.loop_self_us_per_step": self._share(
                episode.total - episode.child, self.steps
            )
            * us,
            "training.steps": self.steps,
            "training.episodes": self.episodes,
            "training.captures": self.captures,
            "training.save_checkpoint_ms": self._mean("training.save_checkpoint", ms),
            "training.load_checkpoint_ms": self._mean("training.load_checkpoint", ms),
            "logs.step_record_us": self._mean("logs.step_record", us),
            "logs.summary_row_us": self._mean("logs.summary_row", us),
            "logs.export_json_ms": self._mean("logs.export_json", ms),
            "logs.load_episode_ms": self._mean("logs.load_episode", ms),
            "logs.export_csv_ms": self._mean("logs.export_csv", ms),
            "trace.coverage": self._share(episode.child, episode.total),
        }

    def work_problems(self, unit) -> list[str]:
        """Mismatches between the traced call counts and the work ``unit`` reports."""
        span = self.spans
        steps, train_steps = unit.steps, unit.train_steps
        problems = []
        if self.steps != steps:
            problems.append(f"traced steps {self.steps} != reported {steps}")
        if span["learner.act"].calls != 2 * steps:
            problems.append(f"act calls {span['learner.act'].calls} != 2 x {steps} steps")
        for name in ("learner.update_critic", "learner.update_actor"):
            if span[name].calls != 2 * train_steps:
                problems.append(f"{name} calls {span[name].calls} != 2 x {train_steps}")
        return problems
