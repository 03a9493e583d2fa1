"""Per-bar drum rhythm features and per-piece global aggregates.

Feature vector per bar (all values in [0,1]): overall onset density,
per-stream densities, normalized syncopation, weak-position onset ratio,
half-bar symmetry. Global features are the population mean and std of
each bar feature across a piece.
"""

import csv
import io
from functools import lru_cache

import numpy as np

from .encoding import (COMPONENTS, STREAM_NAMES, STREAMS,
                       metrical_classes, quantize_song)
from .ioutil import atomic_write_text

FEATURE_NAMES = ("density", "density_k", "density_h", "density_t",
                 "syncopation", "weak_ratio", "half_symmetry")
GLOBAL_FEATURE_NAMES = tuple(f"{n}_mean" for n in FEATURE_NAMES) + \
    tuple(f"{n}_std" for n in FEATURE_NAMES)

_STREAM_COLS = {s: np.array([COMPONENTS.index(c) for c in STREAMS[s]])
                for s in STREAM_NAMES}


def metrical_weights(n_steps):
    """Per-position weights: downbeat 0, on-beat -1, half-beat -2, offbeat -3."""
    return tuple((-metrical_classes(np.arange(n_steps))).tolist())


def lhl_raw_syncopation(pattern, weights):
    """Unnormalized syncopation: each rest on a position metrically
    stronger than its most recent preceding onset scores the weight
    difference."""
    if len(pattern) != len(weights):
        raise ValueError(f"pattern length {len(pattern)} != weights length {len(weights)}")
    score = 0
    last = None
    for sounded, w in zip(pattern, weights):
        if sounded:
            last = w
        elif last is not None and w > last:
            score += w - last
    return score


@lru_cache(maxsize=None)
def _max_raw_syncopation(weights):
    # DP over positions; state = weight of the most recent onset (or None)
    best = {None: 0}
    for w in weights:
        nxt = {}
        for last, sc in best.items():
            if nxt.get(w, -1) < sc:  # place an onset here
                nxt[w] = sc
            gain = w - last if last is not None and w > last else 0
            if nxt.get(last, -1) < sc + gain:  # leave a rest
                nxt[last] = sc + gain
        best = nxt
    return max(best.values())


def lhl_syncopation(pattern, weights=None):
    """Syncopation in [0,1]: raw score over the maximum attainable for
    this bar length's metrical weight profile."""
    pattern = np.asarray(pattern, dtype=bool)
    if weights is None:
        weights = metrical_weights(len(pattern))
    weights = tuple(weights)
    raw = lhl_raw_syncopation(pattern, weights)
    top = _max_raw_syncopation(weights)
    return raw / top if top > 0 else 0.0


def bar_features(bar_grid):
    """7 features for one bar's [steps x 9] component-onset grid."""
    grid = np.asarray(bar_grid, dtype=bool)
    n = grid.shape[0]
    if n < 1:
        raise ValueError("empty bar")
    classes = metrical_classes(np.arange(n))

    density = grid.sum() / (n * len(COMPONENTS))
    stream_density = [grid[:, _STREAM_COLS[s]].sum() / (n * len(STREAMS[s]))
                      for s in STREAM_NAMES]

    sync = lhl_syncopation(grid.any(axis=1))

    total_onsets = grid.sum()
    weak = grid[np.isin(classes, (2, 3))].sum()
    weak_ratio = weak / total_onsets if total_onsets else 0.0

    half = n // 2
    symmetry = (grid[:half] == grid[n - half:]).mean() if half else 1.0

    return np.array([density, *stream_density, sync, weak_ratio, symmetry])


def bar_grids(grid):
    """Split a StepGrid's drum onsets into per-bar [steps x 9] slices."""
    return [grid.drum_onsets[start:start + n]
            for start, n in zip(grid.bar_start, grid.steps_per_bar)]


def global_features(grid):
    """Population mean and std of each bar feature across a piece's bars."""
    bars = bar_grids(grid)
    if not bars:
        raise ValueError("piece has no bars")
    per_bar = np.stack([bar_features(b) for b in bars])
    return np.concatenate([per_bar.mean(axis=0), per_bar.std(axis=0)])


def song_global_features(song):
    return global_features(quantize_song(song))


# ---------------------------------------------------------------------------
# CSV interfaces

def write_features_csv(path, rows):
    """rows: iterable of (piece_id, group_label, 14-feature vector)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(("piece", "group") + GLOBAL_FEATURE_NAMES)
    w.writerows([piece, group] + [repr(float(x)) for x in vec] for piece, group, vec in rows)
    atomic_write_text(path, buf.getvalue())


def read_features_csv(path):
    """The (piece, group, features) rows of a features CSV. A ValueError names path,
    and the line for a row of another width or a value that is not a finite number."""
    with open(path, "rb") as fh:
        try:
            r = csv.reader(io.StringIO(fh.read().decode("utf-8"), newline=""))
        except UnicodeDecodeError as e:
            raise ValueError(f"features CSV {path} is not UTF-8 text: {e}") from e
    header = next(r, [])  # [] for an empty file
    if tuple(header[2:]) != GLOBAL_FEATURE_NAMES:
        raise ValueError(f"unexpected features CSV header in {path}")
    rows = []
    for row in r:
        if len(row) != len(header):
            raise ValueError(f"features CSV {path}, line {r.line_num}: {len(row)} "
                             f"columns, the header has {len(header)}")
        try:
            values = np.array([float(x) for x in row[2:]])
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{values[~np.isfinite(values)][0]} is not a finite number")
        except ValueError as e:
            raise ValueError(f"features CSV {path}, line {r.line_num}: {e}") from e
        rows.append((row[0], row[1], values))
    return rows


def write_embedding_csv(path, pieces, groups, coords):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(("piece", "x", "y", "group"))
    for piece, group, (x, y) in zip(pieces, groups, coords):
        w.writerow([piece, repr(float(x)), repr(float(y)), group])
    atomic_write_text(path, buf.getvalue())
