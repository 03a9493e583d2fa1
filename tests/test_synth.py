import hashlib
import json
import os

import numpy as np
import pytest

from drumgen.encoding import quantize_song, load_song
from drumgen.synth import (STYLES, SynthConfig, phrase_mark_for, synth_corpus,
                           synth_song, synth_songs)

SYNTHROCK = STYLES["synthrock"]


def one_song(seed=0, **cfg_kwargs):
    defaults = dict(n_songs=1, bars_per_song=8, seed=seed)
    defaults.update(cfg_kwargs)
    cfg = SynthConfig(**defaults)
    return synth_song(SYNTHROCK, cfg, np.random.default_rng(seed))


def onsets_by_bar(song):
    grid = quantize_song(song)
    out = []
    for start, n in zip(grid.bar_start, grid.steps_per_bar):
        out.append(grid.drum_onsets[start:start + n])
    return grid, out


def test_phrase_marks():
    assert [phrase_mark_for(i, 4) for i in range(8)] == \
        ["start", "mid", "mid", "end"] * 2


def test_phrase_end_bars_always_carry_the_tom_fill():
    song = one_song(seed=1)
    grid, bars = onsets_by_bar(song)
    for bar, onsets in zip(song.bars, bars):
        n = len(onsets)
        has_fill = (onsets[n - 6, 6] and onsets[n - 4, 7] and onsets[n - 2, 8])
        assert has_fill == (bar.phrase_mark == "end")
        # toms never appear outside fills
        if bar.phrase_mark != "end":
            assert not onsets[:, 6:9].any()


def test_crash_iff_phrase_start_downbeat():
    song = one_song(seed=2)
    _, bars = onsets_by_bar(song)
    for bar, onsets in zip(song.bars, bars):
        crashes = set(np.flatnonzero(onsets[:, 5]))
        assert crashes == ({0} if bar.phrase_mark == "start" else set())


def test_four_four_backbone_and_tempo_coupling():
    fast = one_song(seed=3, meters=((4, 4),), tempo_range=(120.0, 120.0))
    slow = one_song(seed=3, meters=((4, 4),), tempo_range=(90.0, 90.0))
    for song, hh_per_bar in ((fast, 16), (slow, 8)):
        _, bars = onsets_by_bar(song)
        for bar_meta, onsets in zip(song.bars, bars):
            assert set(np.flatnonzero(onsets[:, 1])) == {4, 12}   # snare beats 2,4
            assert set(np.flatnonzero(onsets[:, 0])) == {0, 8}    # kick beats 1,3
            assert onsets[:, 2].sum() == hh_per_bar


def test_bass_onsets_coincide_with_kick():
    song = one_song(seed=4, meters=((4, 4), (7, 8)))
    kick_steps = {s for s, c in song.drums if c == "kick"}
    bass_steps = {ev[0] for ev in song.bass}
    assert bass_steps == kick_steps


def test_guitar_onsets_on_downbeats():
    song = one_song(seed=5)
    grid = quantize_song(song)
    assert {ev[0] for ev in song.guitar} == set(grid.bar_start)


def test_same_seed_same_song():
    a = one_song(seed=6)
    b = one_song(seed=6)
    assert a.drums == b.drums and a.bars == b.bars and a.bass == b.bass


def test_meters_restricted_to_config():
    cfg = SynthConfig(n_songs=6, bars_per_song=4, meters=((4, 4), (7, 8)), seed=7)
    for song in synth_songs(SYNTHROCK, cfg):
        for bar in song.bars:
            assert (bar.numerator, bar.denominator) in ((4, 4), (7, 8))


def test_ornament_is_stochastic_but_bounded():
    cfg = SynthConfig(n_songs=12, bars_per_song=8, seed=8)
    ohh_bars = total_mid_bars = 0
    for song in synth_songs(SYNTHROCK, cfg):
        grid, bars = onsets_by_bar(song)
        for bar, onsets in zip(song.bars, bars):
            if bar.phrase_mark == "mid":
                total_mid_bars += 1
                ohh_bars += bool(onsets[:, 3].any())
            else:
                assert not onsets[:, 3].any()  # ornament only in mid bars
    assert 0 < ohh_bars < total_mid_bars  # interior probability: some, not all


def test_empty_corpus(tmp_path):
    cfg = SynthConfig(n_songs=0, seed=0)
    paths = synth_corpus(SYNTHROCK, cfg, tmp_path)
    assert paths == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == []
    assert sorted(os.listdir(tmp_path)) == ["manifest.json"]


def test_corpus_checksums_stable_across_runs(tmp_path):
    cfg = SynthConfig(n_songs=3, bars_per_song=4, seed=9)

    def checksums(d):
        os.makedirs(d, exist_ok=True)
        synth_corpus(SYNTHROCK, cfg, d)
        return {f: hashlib.sha256((d / f).read_bytes()).hexdigest()
                for f in sorted(os.listdir(d))}

    assert checksums(tmp_path / "a") == checksums(tmp_path / "b")


def test_corpus_files_load_as_songs(tmp_path):
    cfg = SynthConfig(n_songs=2, bars_per_song=4, seed=10)
    paths = synth_corpus(SYNTHROCK, cfg, tmp_path)
    for p in paths:
        song = load_song(p)
        assert quantize_song(song).total_steps > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_songs=-1)
    with pytest.raises(ValueError):
        SynthConfig(phrase_len=1)
    with pytest.raises(ValueError):
        SynthConfig(meters=())
    for tempo in ((100.0, 90.0), (0.0, 90.0), (80.0, float("inf")), (float("nan"), 90.0), (80.0,)):
        with pytest.raises(ValueError, match="tempo_range"):
            SynthConfig(tempo_range=tempo)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SynthConfig(seed=-1)
    for meter in ((5, 16), (4, 3), (0, 4), (4, 4, 4)):
        name = "/".join(map(str, meter))
        with pytest.raises(ValueError, match=f"meter {name} is not an encodable time signature"):
            SynthConfig(meters=((4, 4), meter))
