"""Deterministic rule-based style generator for training/evaluation
corpora with known condition-to-drum couplings.

The built-in "synthrock" style has a fully deterministic backbone (so
tests can assert exact rules on the output) plus one bounded stochastic
ornament. Bass onsets always coincide with kick onsets, giving the
instrument-conditioning tests a known ground-truth dependency.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .encoding import COMPONENTS, SIGNATURES, Bar, Song, tempo_bin, save_song
from .ioutil import atomic_write_text

_CI = {c: i for i, c in enumerate(COMPONENTS)}

FAST_TEMPO_BIN = 3       # from this tempo class on, hi-hat plays sixteenths
ORNAMENT_OHH_PROB = 0.25


@dataclass(frozen=True)
class SynthConfig:
    n_songs: int = 8
    bars_per_song: int = 8
    meters: tuple = ((4, 4),)
    tempo_range: tuple = (80.0, 135.0)
    phrase_len: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_songs < 0:
            raise ValueError("n_songs must be >= 0")
        if self.bars_per_song < 1:
            raise ValueError("bars_per_song must be >= 1")
        if self.phrase_len < 2:
            raise ValueError("phrase_len must be >= 2")
        if not self.meters:
            raise ValueError("meters list is empty")
        low, high = self.tempo_range if len(self.tempo_range) == 2 else (0, 0)
        if not 0 < low <= high < float("inf"):
            raise ValueError(f"tempo_range needs finite 0 < low <= high, got {self.tempo_range!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "meters", tuple(tuple(m) for m in self.meters))
        for meter in self.meters:
            if meter not in SIGNATURES:
                raise ValueError(f"meter {'/'.join(map(str, meter))} is not an encodable "
                                 f"time signature {tuple(f'{n}/{d}' for n, d in SIGNATURES)}")


def synthrock_probabilities(bar):
    """Per-component onset probabilities for one bar: 1.0 for backbone
    rules, strictly interior values for ornaments, 0 elsewhere."""
    steps = bar.steps
    p = np.zeros((steps, len(COMPONENTS)))
    beat = 16 // bar.denominator
    nbeats = bar.numerator

    for b in (0, 2):  # kick on beats 1 and 3
        if b < nbeats:
            p[b * beat, _CI["kick"]] = 1.0

    snare_beats = {1} if nbeats >= 2 else set()
    snare_beats.add(3 if nbeats >= 4 else nbeats - 1)  # beat 4, or last beat
    snare_beats.discard(0)
    for b in snare_beats:
        p[b * beat, _CI["snare"]] = 1.0

    hh_step = 1 if tempo_bin(bar.tempo_bpm) >= FAST_TEMPO_BIN else 2
    p[::hh_step, _CI["chh"]] = 1.0

    if bar.phrase_mark == "start":
        p[0, _CI["crash"]] = 1.0
    elif bar.phrase_mark == "end" and steps >= 6:
        p[steps - 6, _CI["tom_hi"]] = 1.0
        p[steps - 4, _CI["tom_mid"]] = 1.0
        p[steps - 2, _CI["tom_lo"]] = 1.0
    elif bar.phrase_mark == "mid":
        p[steps - 2, _CI["ohh"]] = ORNAMENT_OHH_PROB

    return p


@dataclass(frozen=True)
class StyleSpec:
    """Named rule set: bar context -> per-component onset probabilities,
    plus fixed melodic-track conventions."""
    name: str
    bar_probabilities: callable
    guitar_pitch: int = 55   # mid register onset on every downbeat
    bass_pitch: int = 36     # low register, doubled onto every kick


STYLES = {"synthrock": StyleSpec("synthrock", synthrock_probabilities)}


def phrase_mark_for(bar_idx, phrase_len):
    pos = bar_idx % phrase_len
    if pos == 0:
        return "start"
    if pos == phrase_len - 1:
        return "end"
    return "mid"


def realize_song(style, bars, rng, title="synth"):
    """Apply a style's probability rules over an explicit bar structure."""
    drums = []
    guitar = []
    bass = []
    start = 0
    for bar in bars:
        probs = style.bar_probabilities(bar)
        for pos in range(bar.steps):
            for ci, comp in enumerate(COMPONENTS):
                pr = probs[pos, ci]
                if pr >= 1.0 or (pr > 0.0 and rng.random() < pr):
                    drums.append((start + pos, comp))
        guitar.append((start, bar.steps, style.guitar_pitch))
        start += bar.steps
    for step, comp in drums:
        if comp == "kick":
            bass.append((step, 2, style.bass_pitch))
    return Song(title=title, bars=list(bars), guitar=guitar, bass=bass, drums=drums)


def synth_song(style, config, rng, title="synth"):
    """One song: meter, tempo and phrase phase drawn from the config
    ranges, drums realized from the style's probability rules.

    Songs start at a random phase of the phrase cycle so that fills and
    crashes correlate with the grouping labels, not with absolute bar
    positions a sequence model could count out.
    """
    num, den = config.meters[rng.integers(len(config.meters))]
    tempo = round(float(rng.uniform(*config.tempo_range)), 1)
    offset = int(rng.integers(config.phrase_len))
    bars = [Bar(num, den, tempo, phrase_mark_for(i + offset, config.phrase_len))
            for i in range(config.bars_per_song)]
    return realize_song(style, bars, rng, title=title)


def synth_songs(style, config):
    """All songs of a corpus, in memory, with per-song derived seeds."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_songs)
    return [synth_song(style, config, np.random.default_rng(child),
                       title=f"{style.name}-{i:03d}")
            for i, child in enumerate(children)]


def synth_corpus(style, config, out_dir):
    """Write Song JSON files plus a manifest; returns the song paths."""
    os.makedirs(out_dir, exist_ok=True)
    songs = synth_songs(style, config)
    paths = []
    for i, song in enumerate(songs):
        path = os.path.join(out_dir, f"{style.name}-{i:03d}.json")
        save_song(song, path)
        paths.append(path)
    manifest = {
        "style": style.name,
        "seed": config.seed,
        "n_songs": config.n_songs,
        "files": [os.path.basename(p) for p in paths],
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=1, sort_keys=True))
    return paths
