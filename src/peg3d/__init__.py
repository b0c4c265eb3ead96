"""3D pursuit-evasion game simulator with a fuzzy actor-critic learning toolkit."""

from ._version import __version__
from .env import (
    AgentState,
    Arena,
    Obstacle,
    check_termination,
    heading_vector,
    nearest_obstacle,
    step_agent,
)
from .fuzzy import (
    Firing,
    InputPartition,
    RuleBase,
    firing_entropy,
    uniform_partition,
)
from .geometry import (
    ApolloniusSphere,
    DegenerateInputError,
    apollonius_sphere,
    dominance,
    pursuit_cone_halfangle,
    pursuit_offset_angle,
)
from .learner import FuzzyActorCritic, LearnerConfig, extract_inputs, noise_stream
from .logs import EpisodeLog, StepRecord, export_csv, export_json, load_episode
from .reward import RewardConfig, total_reward
from .scenarios import (
    Scenario,
    TrainConfig,
    builtin_scenarios,
    initial_states,
    load_config,
    place_obstacles,
)
from .training import (
    CheckpointLayoutError,
    TrainResult,
    evaluate,
    load_checkpoint,
    make_checkpoint,
    run_episode,
    save_checkpoint,
    train,
)
