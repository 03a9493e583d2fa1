"""The benchmark's span tracer (perfbench/spans.py) patches drumgen's
functions by name. Installing it fails if a traced name is gone, and
uninstalling it must put every original back. train must call the
patched optimizer functions through the module's globals."""

import collections
import math
import os
import sys

import numpy as np

import drumgen.layers as dm_layers
import drumgen.model as dm_model
from drumgen.encoding import encode_sequence, quantize_song
from drumgen.synth import STYLES, SynthConfig, synth_songs

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import spans  # noqa: E402

MODULES = [m for m in vars(spans).values()
           if getattr(m, "__name__", "").startswith("drumgen.")]


def snapshot():
    names = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    names["LinearLayer.forward"] = dm_layers.LinearLayer.forward
    return names


def test_tracer_install_patches_and_uninstall_restores():
    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = snapshot()
    finally:
        tracer.uninstall()
    patched = {key for key, value in before.items() if during[key] is not value}
    for key in [("drumgen.model", "lstm_step"), ("drumgen.model", "train"),
                ("drumgen.layers", "lstm_step"), ("drumgen.sampling", "forward_step"),
                ("drumgen.sampling", "params_from_checkpoint"),
                ("drumgen.sampling", "window_pre"), ("drumgen.sampling", "window_post"),
                "LinearLayer.forward"]:
        assert key in patched
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


CONFIG = dm_model.ModelConfig(hidden=4, seq_len=16, batch_size=3)


def corpus():
    cfg = SynthConfig(n_songs=2, bars_per_song=3, meters=((4, 4), (7, 8)), seed=23)
    return [encode_sequence(quantize_song(s)) for s in synth_songs(STYLES["synthrock"], cfg)]


def test_train_calls_clip_and_adam_once_per_batch_by_name(monkeypatch):
    """spans.py times, and selftest.py disables, model.adam_step and
    model.clip_global_norm by patching these names; a train that inlined
    either would leave its traced time at 0."""
    pieces = corpus()
    calls = collections.Counter()

    def counting(name):
        real = getattr(dm_model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("adam_step", "clip_global_norm"):
        monkeypatch.setattr(dm_model, name, counting(name))
    epochs = 2
    ckpt = dm_model.train(pieces, CONFIG, epochs, snapshot_epochs=(), seed=0)[-1]
    slices = sum(math.ceil(len(seq) / CONFIG.seq_len) for seq in pieces)
    batches = epochs * math.ceil(slices / CONFIG.batch_size)
    assert calls == {"adam_step": batches, "clip_global_norm": batches}
    assert ckpt.adam_t == batches


def test_train_with_adam_patched_out_keeps_the_initial_draw(monkeypatch):
    pieces = corpus()
    initial = dm_model.train(pieces, CONFIG, 0, snapshot_epochs=(), seed=0)[-1]
    monkeypatch.setattr(dm_model, "adam_step", lambda *args, **kwargs: None)
    final = dm_model.train(pieces, CONFIG, 2, snapshot_epochs=(), seed=0)[-1]
    np.testing.assert_array_equal(final.values.view(np.uint64), initial.values.view(np.uint64))
