import itertools
import json
import os
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drumgen import encoding as enc
from drumgen.encoding import (Bar, Song, condition_windows, encode_condition,
                              encode_sequence, decode_words, drum_word_index,
                              grid_words, load_song, quantize_song, save_song,
                              snap_step, window_post, window_pre, word_components)


def bar(num=4, den=4, bpm=120.0, phrase="mid"):
    return Bar(num, den, bpm, phrase)


def simple_song(bars=None, **kwargs):
    return Song(title="t", bars=bars or [bar()], **kwargs)


@pytest.mark.parametrize("num,den,steps", [(4, 4, 16), (9, 8, 18), (3, 8, 6),
                                           (7, 8, 14), (12, 8, 24), (2, 4, 8),
                                           (128, 8, 256), (256, 16, 256)])
def test_bar_step_counts(num, den, steps):
    assert bar(num, den).steps == steps


@pytest.mark.parametrize("num,den", [(257, 16), (129, 8), (65, 4), (33, 2), (10 ** 9, 4),
                                     (np.int64(2 ** 62), 2)])
def test_bar_longer_than_the_step_limit_rejected(num, den):
    """A bar of 257 sixteenths or more is refused before a grid of its size is built."""
    assert enc.BAR_STEP_LIMIT == 256
    with pytest.raises(ValueError, match=f"bar {num}/{den} is longer than BAR_STEP_LIMIT = 256"):
        bar(num, den)


def test_bar_validation():
    with pytest.raises(ValueError, match="denominator"):
        Bar(4, 3, 120.0, "mid")
    with pytest.raises(ValueError, match="numerator"):
        Bar(0, 4, 120.0, "mid")
    with pytest.raises(ValueError, match="tempo"):
        Bar(4, 4, 0.0, "mid")
    with pytest.raises(ValueError, match="phrase"):
        Bar(4, 4, 120.0, "bridge")


def test_step_counts_independent_of_tempo():
    g1 = quantize_song(simple_song([bar(bpm=60.0), bar(bpm=200.0)]))
    assert g1.total_steps == 32


def test_snap_ties_round_down():
    assert snap_step(2.5) == 2
    assert snap_step(2.6) == 3
    assert snap_step(2.4) == 2
    assert snap_step(3.0) == 3


def test_quantize_snaps_events():
    song = simple_song(drums=[(2.5, "kick"), (7.6, "snare")])
    grid = quantize_song(song)
    assert grid.drum_onsets[2, 0]
    assert grid.drum_onsets[8, 1]


def test_quantize_rejects_out_of_range_and_bad_components():
    with pytest.raises(ValueError, match="outside grid"):
        quantize_song(simple_song(drums=[(16, "kick")]))
    with pytest.raises(ValueError, match="component"):
        quantize_song(simple_song(drums=[(0, "cowbell")]))
    with pytest.raises(ValueError, match="pitch"):
        quantize_song(simple_song(guitar=[(0, 4, 200)]))


def test_drum_word_index_examples():
    assert drum_word_index("K", set()) == 0
    assert drum_word_index("K", {"kick", "snare"}) == 3
    assert drum_word_index("T", {"crash", "tom_lo"}) == 9


def test_drum_word_index_rejects_foreign_component():
    with pytest.raises(ValueError, match="stream"):
        drum_word_index("K", {"crash"})


@pytest.mark.parametrize("stream", enc.STREAM_NAMES)
def test_drum_word_bijection(stream):
    comps = enc.STREAMS[stream]
    seen = set()
    for r in range(len(comps) + 1):
        for subset in itertools.combinations(comps, r):
            idx = drum_word_index(stream, subset)
            assert word_components(stream, idx) == subset
            seen.add(idx)
    assert seen == set(range(2 ** len(comps)))


def test_metrical_classes_in_four_four():
    grid = quantize_song(simple_song())
    classes = grid.metrical_class
    assert classes[0] == 0
    assert all(classes[p] == 1 for p in (4, 8, 12))
    assert all(classes[p] == 2 for p in (2, 6, 10, 14))
    assert all(classes[p] == 3 for p in range(1, 16, 2))


def test_condition_vector_silent_downbeat():
    song = simple_song([bar(4, 4, 120.0, "mid")])
    v = encode_condition(quantize_song(song), 0)
    assert v.sum() == 6
    assert v[enc.GUITAR_BLOCK][0] == 1          # rest
    assert v[enc.BASS_BLOCK][0] == 1            # rest
    assert v[enc.METER_BLOCK][0] == 1           # downbeat
    assert v[enc.SIGNATURE_BLOCK][enc.SIGNATURES.index((4, 4))] == 1
    assert v[enc.TEMPO_BLOCK][3] == 1           # [110,140)
    assert v[enc.GROUPING_BLOCK][1] == 1        # mid


def test_condition_bass_onset_register():
    song = simple_song(bass=[(0, 2, 36)])
    v = encode_condition(quantize_song(song), 0)
    assert v[enc.BASS_BLOCK][2] == 1  # onset-low: pitch < 40
    v1 = encode_condition(quantize_song(song), 1)
    assert v1[enc.BASS_BLOCK][1] == 1  # hold on the sustained step


def test_condition_guitar_registers():
    for pitch, cls in [(40, 2), (60, 3), (70, 4)]:
        song = simple_song(guitar=[(0, 1, pitch)])
        v = encode_condition(quantize_song(song), 0)
        assert v[enc.GUITAR_BLOCK][cls] == 1


def test_condition_lowest_sounding_pitch_wins():
    song = simple_song(guitar=[(0, 4, 70), (2, 2, 50)])
    v = encode_condition(quantize_song(song), 2)
    assert v[enc.GUITAR_BLOCK][2] == 1  # low onset, held 70 also sounds


@pytest.mark.parametrize("bpm,bin_idx", [(60, 0), (70, 1), (89, 1), (90, 2),
                                         (109, 2), (110, 3), (139, 3), (140, 4)])
def test_tempo_bins(bpm, bin_idx):
    assert enc.tempo_bin(bpm) == bin_idx


def test_unsupported_signature_rejected_at_encoding():
    song = simple_song([bar(11, 16, 120.0, "mid")])
    grid = quantize_song(song)  # grid itself is fine (11 steps)
    assert grid.total_steps == 11
    with pytest.raises(ValueError, match="signature"):
        encode_condition(grid, 0)


def test_every_condition_vector_has_one_hot_blocks():
    song = simple_song([bar(7, 8, 95.0, "start"), bar(7, 8, 95.0, "end")],
                       guitar=[(0, 14, 55)], bass=[(0, 2, 36), (8, 2, 45)],
                       drums=[(0, "kick")])
    grid = quantize_song(song)
    cond = enc.condition_matrix(grid)
    for block in enc.CONDITION_BLOCKS:
        npt.assert_array_equal(cond[:, block].sum(axis=1), np.ones(len(cond)))
    npt.assert_array_equal(cond.sum(axis=1), np.full(len(cond), 6.0))


def test_window_pre_padding():
    song = simple_song()
    cond = enc.condition_matrix(quantize_song(song))
    npt.assert_array_equal(window_pre(cond, 0, 4), np.zeros(31))
    for block in enc.CONDITION_BLOCKS:
        assert window_pre(cond, 8, 4)[block].sum() == 4
        assert window_pre(cond, 2, 4)[block].sum() == 2


def test_window_post_padding():
    song = simple_song()
    cond = enc.condition_matrix(quantize_song(song))
    for block in enc.CONDITION_BLOCKS:
        assert window_post(cond, 15, 4)[block].sum() == 1
        assert window_post(cond, 5, 4)[block].sum() == 5


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)),
                  elements=st.integers(0, 3)),
       st.integers(0, 16), st.integers(0, 16))
def test_condition_windows_equal_per_step_sums(cond, w_p, w_f):
    # integer-valued rows, as the one-hot condition vectors: exact equality
    pre, post = condition_windows(cond, w_p, w_f)
    assert pre.shape == post.shape == cond.shape
    for t in range(len(cond)):
        npt.assert_array_equal(pre[t], window_pre(cond, t, w_p))
        npt.assert_array_equal(post[t], window_post(cond, t, w_f))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                  elements=st.floats(-1.0, 1.0)),
       st.integers(0, 16), st.integers(0, 16))
def test_condition_windows_close_to_per_step_sums_for_real_rows(cond, w_p, w_f):
    pre, post = condition_windows(cond, w_p, w_f)
    for t in range(len(cond)):
        npt.assert_allclose(pre[t], window_pre(cond, t, w_p), rtol=0, atol=1e-12)
        npt.assert_allclose(post[t], window_post(cond, t, w_f), rtol=0, atol=1e-12)


def test_future_tempo_change_visible_only_in_post_window():
    song = simple_song([bar(bpm=80.0), bar(bpm=150.0)])
    cond = enc.condition_matrix(quantize_song(song))
    t = 14  # two steps before the tempo change at step 16
    fast_bin = enc.TEMPO_BLOCK.start + 4
    assert window_post(cond, t, 4)[fast_bin] > 0
    assert window_pre(cond, t, 4)[fast_bin] == 0


def test_encode_silent_song():
    seq = encode_sequence(quantize_song(simple_song()))
    assert len(seq) == 16
    assert np.all(seq.inputs == 0) and np.all(seq.targets == 0)


def test_encode_decode_roundtrip():
    drums = [(0, "kick"), (0, "chh"), (4, "snare"), (10, "tom_lo"), (15, "crash")]
    seq = encode_sequence(quantize_song(simple_song(drums=drums)))
    assert sorted(decode_words(seq.targets)) == sorted(drums)


def test_targets_shifted_one_step_from_inputs():
    song = simple_song([bar(), bar()], drums=[(0, "kick"), (5, "snare"), (17, "ohh")])
    seq = encode_sequence(quantize_song(song))
    assert len(seq) == 32
    npt.assert_array_equal(seq.inputs[0], [0, 0, 0])
    npt.assert_array_equal(seq.inputs[1:], seq.targets[:-1])
    assert (seq.w_past, seq.w_future) == (4, 4)
    for w_p, w_f in ((0, 8), (8, 0), (4, 4)):
        other = encode_sequence(quantize_song(song), w_p, w_f)
        npt.assert_array_equal(other.targets, seq.targets)
        pre, post = condition_windows(other.cond, w_p, w_f)
        for t in range(len(other)):
            npt.assert_array_equal(pre[t], window_pre(other.cond, t, w_p))
            npt.assert_array_equal(post[t], window_post(other.cond, t, w_f))


@pytest.mark.parametrize("w_p, w_f", [(-1, 4), (4, -2), (4.0, 4), (4, True)])
def test_encode_sequence_rejects_bad_window_lengths(w_p, w_f):
    with pytest.raises(ValueError, match="window lengths must be non-negative ints"):
        encode_sequence(quantize_song(simple_song()), w_p, w_f)


def test_song_json_roundtrip(tmp_path):
    song = Song(title="fixture",
                bars=[bar(4, 4, 118.5, "start"), bar(7, 8, 118.5, "end")],
                guitar=[(0, 16, 55)], bass=[(0, 2, 36)],
                drums=[(0, "kick"), (4, "snare")])
    path = tmp_path / "song.json"
    save_song(song, path)
    loaded = load_song(path)
    assert loaded.title == song.title
    assert loaded.bars == song.bars
    assert loaded.guitar == [tuple(ev) for ev in song.guitar]
    assert loaded.drums == song.drums
    # file is plain JSON with the documented keys
    doc = json.loads(path.read_text())
    assert set(doc) == {"title", "bars", "guitar", "bass", "drums"}


# bars of supported signatures, any positive tempo, any phrase mark
bar_lists = st.lists(
    st.builds(lambda sig, bpm, phrase: Bar(sig[0], sig[1], bpm, phrase),
              st.sampled_from(enc.SIGNATURES),
              st.floats(1.0, 400.0, allow_nan=False),
              st.sampled_from(enc.PHRASE_MARKS)),
    min_size=1, max_size=4)


@st.composite
def words_over_bars(draw):
    bars = draw(bar_lists)
    steps = sum(b.steps for b in bars)
    columns = [draw(hnp.arrays(np.intp, steps, elements=st.integers(0, vocab - 1)))
               for vocab in enc.VOCAB_SIZES]
    return bars, np.stack(columns, axis=1)


@settings(max_examples=100, deadline=None)
@given(words_over_bars())
def test_words_survive_decode_quantize_grid_words(case):
    bars, words = case
    song = Song(title="w", bars=bars, drums=decode_words(words))
    npt.assert_array_equal(grid_words(quantize_song(song)), words)


@st.composite
def song_cases(draw):
    bars = draw(bar_lists)
    steps = sum(b.steps for b in bars)
    step = st.integers(0, steps - 1)
    notes = st.lists(st.tuples(step, st.integers(1, 32), st.integers(0, 127)), max_size=6)
    return Song(title=draw(st.text(max_size=8)), bars=bars,
                guitar=draw(notes), bass=draw(notes),
                drums=draw(st.lists(st.tuples(step, st.sampled_from(enc.COMPONENTS)),
                                    max_size=12)))


@settings(max_examples=100, deadline=None)
@given(song_cases())
def test_song_survives_save_load(song):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "song.json")
        save_song(song, path)
        loaded = load_song(path)
    assert loaded == song
    quantize_song(loaded)  # every event lies inside the grid


# pitches at, between and around the register cuts, and tempos at and just
# below the bin edges
CUT_PITCHES = sorted({c + d for c in enc.BASS_REGISTER_CUTS + enc.GUITAR_REGISTER_CUTS
                      for d in (-1, -0.5, 0, 0.5, 1)})
EDGE_TEMPI = [t for e in enc.TEMPO_EDGES for t in (e, e - 0.1, float(np.nextafter(e, 0)))] + [60.0]


def reference_note_class(events, t, cuts):
    """Class of one melodic track at step t: rest 0, hold 1, or an onset,
    2 + the number of cuts at or below the lowest sounding pitch."""
    sounding, onset = [], False
    for step, dur, pitch in events:
        s = snap_step(step)
        if s <= t < s + max(1, snap_step(dur)):
            sounding.append(pitch)
            onset |= s == t
    if not sounding:
        return 0
    return 2 + sum(c <= min(sounding) for c in cuts) if onset else 1


def reference_metrical_class(pos):
    if pos == 0:
        return 0
    if pos % 4 == 0:
        return 1
    return 2 if pos % 2 == 0 else 3


def reference_condition_matrix(song):
    """The condition vectors, built one step at a time from the song itself."""
    rows = []
    for b, bar in enumerate(song.bars):
        start = sum(x.steps for x in song.bars[:b])
        for pos in range(bar.steps):
            t = start + pos
            v = np.zeros(enc.COND_DIM)
            guitar = reference_note_class(song.guitar, t, enc.GUITAR_REGISTER_CUTS)
            bass = reference_note_class(song.bass, t, enc.BASS_REGISTER_CUTS)
            sig = enc.SIGNATURES.index((bar.numerator, bar.denominator))
            v[enc.GUITAR_BLOCK.start + guitar] = 1
            v[enc.BASS_BLOCK.start + bass] = 1
            v[enc.METER_BLOCK.start + reference_metrical_class(pos)] = 1
            v[enc.SIGNATURE_BLOCK.start + sig] = 1
            v[enc.TEMPO_BLOCK.start + sum(bar.tempo_bpm >= e for e in enc.TEMPO_EDGES)] = 1
            v[enc.GROUPING_BLOCK.start + enc.PHRASE_MARKS.index(bar.phrase_mark)] = 1
            rows.append(v)
    return np.array(rows)


@st.composite
def conditioned_songs(draw):
    bars = draw(st.lists(st.builds(lambda sig, bpm, mark: Bar(*sig, bpm, mark),
                                   st.sampled_from(enc.SIGNATURES), st.sampled_from(EDGE_TEMPI),
                                   st.sampled_from(enc.PHRASE_MARKS)), min_size=1, max_size=4))
    total = sum(b.steps for b in bars)
    notes = st.lists(st.tuples(st.one_of(st.integers(0, total - 1), st.floats(0, total - 0.5)),
                               st.one_of(st.integers(1, 12), st.floats(0, 12)),
                               st.sampled_from(CUT_PITCHES)), max_size=8)
    return Song("t", bars, guitar=draw(notes), bass=draw(notes))


@settings(max_examples=300, deadline=None)
@given(conditioned_songs())
def test_condition_matrix_equals_a_per_step_reference(song):
    grid = quantize_song(song)
    npt.assert_array_equal(enc.condition_matrix(grid), reference_condition_matrix(song))
    npt.assert_array_equal(grid.metrical_class,
                           [reference_metrical_class(p) for p in grid.pos_in_bar])
