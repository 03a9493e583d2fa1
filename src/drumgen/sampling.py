"""Seeded, condition-driven sampling of drum sequences with an
adjustable diversity (temperature) parameter."""

from dataclasses import dataclass

import numpy as np

from .encoding import quantize_song, condition_matrix, grid_words, check_cond, check_words
from .model import InferenceRun, check_field_types
# The per-step tape path, kept importable here: perfbench/spans.py wraps
# these names in this module when it traces a run.
from .encoding import window_pre, window_post
from .model import forward_step, params_from_checkpoint

ARGMAX_TEMPERATURE = 0.01


@dataclass
class GenerationConfig:
    temperature: float = 1.0
    seed_steps: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        _check_temperature(self.temperature)
        if self.seed_steps < 1:
            raise ValueError("seed_steps must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass
class ConditionTrack:
    """Full-piece per-step condition vectors plus the source drums' words,
    derived from a Song whose drum track may be empty."""
    cond: np.ndarray
    seed_words: np.ndarray  # [total x 3] word indices from the source drums

    def __len__(self):
        return len(self.cond)


def condition_track_from_song(song):
    grid = quantize_song(song)
    return ConditionTrack(condition_matrix(grid), grid_words(grid))


def _check_temperature(temperature):
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature}")


def temperature_adjust(p, temperature):
    """Reweight a probability row: p_i^(1/T), renormalized.

    Temperatures at or below 0.01 collapse to argmax (first index on ties).
    """
    _check_temperature(temperature)
    p = np.asarray(p, dtype=np.float64)
    if temperature <= ARGMAX_TEMPERATURE:
        out = np.zeros_like(p)
        out[int(np.argmax(p))] = 1.0
        return out
    w = p ** (1.0 / temperature)
    return w / w.sum()


def sample_categorical(p, rng):
    """Inverse-CDF draw from a probability row."""
    cdf = np.cumsum(p)
    u = rng.random() * cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def generate(checkpoint, conditions, gen_config):
    """Sample a full drum-word sequence [T x 3] over the condition track.

    The first seed_steps are copied from the track's seed_words (its own
    drums) while warming the recurrent state; every later step feeds the
    sampled words back as the next input. Dropout is off throughout. Runs
    without the tape (model.InferenceRun), from a Checkpoint or the Weights
    of model.load_weights. Raises ValueError for a track that encoding's
    check_cond rejects, seed words that check_words rejects, or seed_steps
    past the end of the track.
    """
    cond = check_cond(conditions.cond, "condition track")
    if gen_config.seed_steps > len(cond):
        raise ValueError(f"seed covers {gen_config.seed_steps} steps but track has {len(cond)}")
    seed = check_words(conditions.seed_words, "seed words", gen_config.seed_steps)
    run = InferenceRun(checkpoint, cond)
    rng = np.random.default_rng(gen_config.rng_seed)
    words = np.zeros((len(cond), 3), dtype=np.intp)
    words[:len(seed)] = seed
    prev = np.zeros(3, dtype=np.intp)  # silence words before step 0
    for t in range(len(cond)):
        probs = run.step(prev)
        if t >= gen_config.seed_steps:
            for si in range(3):
                row = temperature_adjust(probs[si], gen_config.temperature)
                words[t, si] = sample_categorical(row, rng)
        prev = words[t]
    return words
