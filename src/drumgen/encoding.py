"""Symbolic song representation on a sixteenth-note grid and its
one-hot "text word" encodings.

Drums are split into three streams, each encoding the subset of sounding
components at a step as a binary word index. Non-drum context (guitar,
bass, meter, tempo, phrasing) becomes a 31-dim concatenation of one-hot
blocks, summed over moving windows before entering the network.
"""

import bisect
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

COMPONENTS = ("kick", "snare", "chh", "ohh", "ride",
              "crash", "tom_hi", "tom_mid", "tom_lo")

STREAM_NAMES = ("K", "H", "T")
STREAMS = {
    "K": ("kick", "snare"),
    "H": ("chh", "ohh", "ride"),
    "T": ("crash", "tom_hi", "tom_mid", "tom_lo"),
}
VOCAB_SIZES = tuple(2 ** len(STREAMS[s]) for s in STREAM_NAMES)  # (4, 8, 16)

PHRASE_MARKS = ("start", "mid", "end")
EVENT_LIMIT = 2 ** 31  # largest step, duration or pitch a song file may give
BAR_STEP_LIMIT = 256  # longest bar in sixteenths; the longest signature, 12/8, has 24

# fixed signature list; meters outside it are not encodable
SIGNATURES = ((2, 4), (3, 4), (4, 4), (5, 4), (6, 8), (7, 8), (3, 8), (9, 8), (12, 8))

TEMPO_EDGES = (70.0, 90.0, 110.0, 140.0)  # 5 bins: <70 ... >=140

# condition vector layout: one one-hot block per context kind
GUITAR_BLOCK = slice(0, 5)     # rest, hold, onset-low, onset-mid, onset-high
BASS_BLOCK = slice(5, 10)
METER_BLOCK = slice(10, 14)    # downbeat, on-beat, half-beat, offbeat
SIGNATURE_BLOCK = slice(14, 23)
TEMPO_BLOCK = slice(23, 28)
GROUPING_BLOCK = slice(28, 31)
CONDITION_BLOCKS = (GUITAR_BLOCK, BASS_BLOCK, METER_BLOCK,
                    SIGNATURE_BLOCK, TEMPO_BLOCK, GROUPING_BLOCK)
COND_DIM = 31

BASS_REGISTER_CUTS = (40, 49)    # onset pitch < cut -> lower register class
GUITAR_REGISTER_CUTS = (52, 65)


@dataclass(frozen=True)
class Bar:
    numerator: int
    denominator: int
    tempo_bpm: float
    phrase_mark: str

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"bar {name} must be an int, got {value!r}")
        if self.numerator < 1:
            raise ValueError(f"bar numerator must be positive, got {self.numerator}")
        if self.denominator not in (2, 4, 8, 16):
            raise ValueError(f"bar denominator must be in {{2,4,8,16}}, got {self.denominator}")
        if self.numerator > BAR_STEP_LIMIT * self.denominator // 16:
            raise ValueError(f"bar {self.numerator}/{self.denominator} is longer than "
                             f"BAR_STEP_LIMIT = {BAR_STEP_LIMIT} sixteenths")
        if isinstance(self.tempo_bpm, bool) or not isinstance(self.tempo_bpm, numbers.Real) \
                or not 0 < self.tempo_bpm < math.inf:
            raise ValueError(f"tempo must be positive and finite, got {self.tempo_bpm}")
        if self.phrase_mark not in PHRASE_MARKS:
            raise ValueError(f"phrase mark must be one of {PHRASE_MARKS}, got {self.phrase_mark!r}")

    @property
    def steps(self):
        return self.numerator * 16 // self.denominator


@dataclass
class Song:
    """Multi-track piece. Note events are (step, duration_steps, pitch);
    drum onsets are (step, component name). Steps are global and may be
    fractional before quantization."""
    title: str
    bars: list
    guitar: list = field(default_factory=list)
    bass: list = field(default_factory=list)
    drums: list = field(default_factory=list)


@dataclass
class StepGrid:
    bars: list
    steps_per_bar: np.ndarray
    bar_start: np.ndarray
    bar_index: np.ndarray       # per step
    pos_in_bar: np.ndarray      # per step
    metrical_class: np.ndarray  # per step, 0..3
    guitar_class: np.ndarray    # per step, index into the 5-class word
    bass_class: np.ndarray
    drum_onsets: np.ndarray     # bool [total_steps x 9]

    @property
    def total_steps(self):
        return int(self.steps_per_bar.sum())


def snap_step(x):
    """Nearest-step rounding, ties round down: 2.5 -> 2, 2.6 -> 3."""
    return int(math.ceil(x - 0.5))


def metrical_classes(positions):
    """Metrical class of each position in a bar: 0 downbeat, 1 on-beat
    (a multiple of 4), 2 half-beat (even), 3 offbeat."""
    pos = np.asarray(positions)
    return np.select([pos == 0, pos % 4 == 0, pos % 2 == 0], [0, 1, 2], 3)


def tempo_bin(bpm):
    return bisect.bisect_right(TEMPO_EDGES, bpm)


def _note_classes(events, total, cuts, track):
    """Per-step 5-class word index for one melodic track."""
    sounding_min = np.full(total, np.inf)
    onset = np.zeros(total, dtype=bool)
    for step, dur, pitch in events:
        if not 0 <= pitch <= 127:
            raise ValueError(f"{track} pitch out of range [0,127]: {pitch}")
        s = snap_step(step)
        if not 0 <= s < total:
            raise ValueError(f"{track} event step {step} outside grid of {total} steps")
        d = max(1, snap_step(dur))
        onset[s] = True
        end = min(s + d, total)
        span = sounding_min[s:end]
        np.minimum(span, pitch, out=span)
    classes = np.zeros(total, dtype=np.intp)
    sounding = np.isfinite(sounding_min)
    classes[sounding] = 1  # hold
    # onsets: 2 + the register, the number of cuts at or below the pitch
    classes[onset] = 2 + np.searchsorted(cuts, sounding_min[onset], side="right")
    return classes


def quantize_song(song):
    """Snap all events of a song onto the global sixteenth-note grid."""
    if not song.bars:
        raise ValueError("song has no bars")
    steps_per_bar = np.array([b.steps for b in song.bars], dtype=np.intp)
    bar_start = np.concatenate([[0], np.cumsum(steps_per_bar)[:-1]])
    total = int(steps_per_bar.sum())

    bar_index = np.repeat(np.arange(len(song.bars)), steps_per_bar)
    pos_in_bar = np.concatenate([np.arange(n) for n in steps_per_bar])
    metrical = metrical_classes(pos_in_bar)

    guitar = _note_classes(song.guitar, total, GUITAR_REGISTER_CUTS, "guitar")
    bass = _note_classes(song.bass, total, BASS_REGISTER_CUTS, "bass")

    onsets = np.zeros((total, len(COMPONENTS)), dtype=bool)
    for step, comp in song.drums:
        if comp not in COMPONENTS:
            raise ValueError(f"unknown drum component {comp!r}")
        s = snap_step(step)
        if not 0 <= s < total:
            raise ValueError(f"drum event step {step} outside grid of {total} steps")
        onsets[s, COMPONENTS.index(comp)] = True

    return StepGrid(list(song.bars), steps_per_bar, bar_start, bar_index,
                    pos_in_bar, metrical, guitar, bass, onsets)


def drum_word_index(stream, active_components):
    """Binary word encoding: bit i set iff stream component i sounds."""
    comps = STREAMS[stream]
    index = 0
    for c in active_components:
        if c not in comps:
            raise ValueError(f"component {c!r} does not belong to stream {stream}")
        index |= 1 << comps.index(c)
    return index


def word_components(stream, index):
    """Inverse of drum_word_index."""
    comps = STREAMS[stream]
    if not 0 <= index < 2 ** len(comps):
        raise ValueError(f"word index {index} out of range for stream {stream}")
    return tuple(c for i, c in enumerate(comps) if index >> i & 1)


def grid_words(grid):
    """The three stream word indices at every step of a grid, [T x 3]:
    drum_word_index of the components with an onset at that step."""
    words = np.empty((grid.total_steps, len(STREAM_NAMES)), dtype=np.intp)
    for si, s in enumerate(STREAM_NAMES):
        cols = [COMPONENTS.index(c) for c in STREAMS[s]]
        words[:, si] = grid.drum_onsets[:, cols] @ (1 << np.arange(len(cols)))
    return words


def condition_matrix(grid):
    """The 31-dim condition vector of every step, [T x 31]: six one-hot
    blocks, the guitar, bass and metrical classes of the step and the
    signature, tempo bin and phrase mark of its bar."""
    per_bar = []
    for bar in grid.bars:
        sig = (bar.numerator, bar.denominator)
        if sig not in SIGNATURES:
            raise ValueError(f"time signature {sig[0]}/{sig[1]} not in the supported list")
        per_bar.append((SIGNATURES.index(sig), tempo_bin(bar.tempo_bpm),
                        PHRASE_MARKS.index(bar.phrase_mark)))
    bar_fields = np.array(per_bar, dtype=np.intp)[grid.bar_index].T
    cond = np.zeros((grid.total_steps, COND_DIM))
    steps = np.arange(grid.total_steps)
    for block, index in zip(CONDITION_BLOCKS, (grid.guitar_class, grid.bass_class,
                                               grid.metrical_class, *bar_fields)):
        cond[steps, block.start + index] = 1.0
    return cond


def encode_condition(grid, t):
    """The condition vector at step t: row t of condition_matrix."""
    if not 0 <= t < grid.total_steps:
        raise IndexError(f"step {t} outside grid of {grid.total_steps} steps")
    return condition_matrix(grid)[t]


def window_pre(cond, t, w_p):
    """Sum of condition vectors over the past window [t-w_p, t), zero-padded."""
    lo = max(0, t - w_p)
    return cond[lo:t].sum(axis=0) if t > lo else np.zeros(cond.shape[1])


def window_post(cond, t, w_f):
    """Sum over the current-and-future window [t, t+w_f], zero-padded."""
    hi = min(len(cond), t + w_f + 1)
    return cond[t:hi].sum(axis=0)


def condition_windows(cond, w_p, w_f):
    """window_pre and window_post at every step of cond [T x d], as two
    [T x d] arrays taken from prefix sums. For integer-valued cond (the
    one-hot condition vectors) they equal the per-step sums exactly."""
    cond = np.asarray(cond, dtype=np.float64)
    steps = len(cond)
    sums = np.zeros((steps + 1, cond.shape[1]))
    np.cumsum(cond, axis=0, out=sums[1:])
    t = np.arange(steps)
    pre = sums[t] - sums[np.maximum(t - w_p, 0)]
    post = sums[np.minimum(t + w_f + 1, steps)] - sums[t]
    return pre, post


def check_words(words, what, rows):
    """words[:rows]; raises ValueError, naming what, unless words is an integer
    [>= rows x 3] array whose first rows rows lie inside VOCAB_SIZES."""
    words = np.asarray(words)
    if words.ndim != 2 or words.shape[1] != 3 or len(words) < rows or \
            not np.issubdtype(words.dtype, np.integer):
        raise ValueError(f"need [>= {rows} x 3] integer {what}, "
                         f"got shape {words.shape} of {words.dtype}")
    words = words[:rows]
    if rows and (words.min() < 0 or np.any(words.max(axis=0) >= VOCAB_SIZES)):
        raise ValueError(f"{what} must lie inside the vocabularies {VOCAB_SIZES}")
    return words


def check_cond(cond, what):
    """cond as an array; raises ValueError, naming what, unless finite real [T x COND_DIM]."""
    cond = np.asarray(cond)
    if cond.ndim != 2 or cond.shape[1] != COND_DIM or cond.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be [T x {COND_DIM}] real numbers, "
                         f"got shape {cond.shape} of {cond.dtype}")
    if not np.all(np.isfinite(cond)):
        raise ValueError(f"{what} has non-finite values")
    return cond


@dataclass
class EncodedSequence:
    """Aligned per-step training arrays for one piece: targets[t] are the
    word indices at t, one column per stream. The inputs are derived from them
    on every read (not stored), the windows from cond by condition_windows.
    """
    targets: np.ndarray     # [T x 3] int
    cond: np.ndarray        # [T x 31]
    w_past: int
    w_future: int

    def __len__(self):
        return len(self.targets)

    inputs = property(lambda self: np.vstack([np.zeros_like(self.targets[:1]), self.targets[:-1]]),
                      doc="the words at t-1 at every step t, silence words (0) at t = 0")


def encode_sequence(grid, w_p=4, w_f=4):
    if grid.total_steps == 0:
        raise ValueError("empty grid")
    if not all(type(w) is int and w >= 0 for w in (w_p, w_f)):
        raise ValueError(f"window lengths must be non-negative ints, got {w_p!r}, {w_f!r}")
    return EncodedSequence(grid_words(grid), condition_matrix(grid), w_p, w_f)


def decode_words(words):
    """Word index triples [T x 3] -> drum onset list [(step, component)]."""
    onsets = []
    for t, row in enumerate(words):
        for s, idx in zip(STREAM_NAMES, row):
            for comp in word_components(s, int(idx)):
                onsets.append((t, comp))
    return onsets


# ---------------------------------------------------------------------------
# Song JSON format

def song_to_dict(song):
    return {
        "title": song.title,
        "bars": [{"num": b.numerator, "den": b.denominator,
                  "bpm": b.tempo_bpm, "phrase": b.phrase_mark}
                 for b in song.bars],
        "guitar": [list(ev) for ev in song.guitar],
        "bass": [list(ev) for ev in song.bass],
        "drums": [[step, comp] for step, comp in song.drums],
    }


def song_from_dict(d):
    bars = [Bar(b["num"], b["den"], b["bpm"], b["phrase"]) for b in d["bars"]]
    return Song(
        title=d.get("title", ""),
        bars=bars,
        guitar=[tuple(ev) for ev in d.get("guitar", [])],
        bass=[tuple(ev) for ev in d.get("bass", [])],
        drums=[(ev[0], ev[1]) for ev in d.get("drums", [])],
    )


def save_song(song, path):
    from .ioutil import atomic_write_text
    atomic_write_text(path, json.dumps(song_to_dict(song), indent=1, sort_keys=True))


def load_song(path):
    """The Song of a JSON file; raises ValueError, naming path, for a file
    that is not JSON, a top level that is not a JSON object, bars that are
    not a list of objects, a missing key, a bar that Bar rejects, or an
    event list or event of another form than song_to_dict writes; an event's
    numbers must lie within +-EVENT_LIMIT, which quantize_song can snap."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ValueError(f"song file {path} is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"song file {path}: the top level is not a JSON object")
    bars = doc.get("bars", [])
    if not isinstance(bars, list) or not all(isinstance(b, dict) for b in bars):
        raise ValueError(f"song file {path}: 'bars' is not a list of JSON objects")
    for track, width in (("guitar", 3), ("bass", 3), ("drums", 2)):
        events = doc.get(track, [])
        if not isinstance(events, list) or not all(isinstance(ev, list) for ev in events):
            raise ValueError(f"song file {path}: '{track}' is not a list of lists")
        for ev in events:
            numbers, names = (ev[:1], ev[1:]) if width == 2 else (ev, [])
            if len(ev) != width or not all(n in COMPONENTS for n in names) or not all(
                    type(x) in (int, float) and abs(x) <= EVENT_LIMIT for x in numbers):
                form = "[step, component]" if width == 2 else "[step, duration, pitch]"
                raise ValueError(f"song file {path}: {track} event {ev!r} is not {form} "
                                 f"of numbers within +-{EVENT_LIMIT}")
    try:
        return song_from_dict(doc)
    except KeyError as e:
        raise ValueError(f"song file {path} lacks the key {e}") from e
    except ValueError as e:
        raise ValueError(f"song file {path}: {e}") from e
