"""In-memory span tracing of drumgen's public functions, from outside the
package.

`Tracer.install()` replaces each traced function under the name its callers
look it up by (a module attribute or a class attribute) with a wrapper that
records one span per call: name, start, end, parent span and request id.
`Tracer.uninstall()` puts the originals back. Nothing inside `src/` changes.

Spans live in parallel Python lists while the run lasts and are written out
once, at the end, by `Tracer.save`. `layer_metrics` turns them into the
per-layer metrics: each layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

import math
import os
from collections import Counter
from time import perf_counter

import numpy as np

import drumgen.autodiff as dm_autodiff
import drumgen.cli as dm_cli
import drumgen.encoding as dm_encoding
import drumgen.features as dm_features
import drumgen.ioutil as dm_ioutil
import drumgen.layers as dm_layers
import drumgen.model as dm_model
import drumgen.sampling as dm_sampling
import drumgen.synth as dm_synth
import drumgen.tsne as dm_tsne

CLI_SUBCOMMANDS = ("synth", "train", "generate", "features", "embed")


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.request = []
        self.counts = Counter()
        self.request_id = -1
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owners, attr, name, make=None):
        """Patch owner.attr in every owner with the same wrapper."""
        original = getattr(owners[0], attr)
        wrapper = make(original) if make else self.wrap(name, original)
        for owner in owners:
            self._set(owner, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        tr = self
        call = self.call

        # autodiff: one span per backward replay; a counting Tape
        self._patch([dm_autodiff, dm_model], "backward", "autodiff.backward")
        self._patch([dm_autodiff], "softmax_rows", "autodiff.softmax_rows")
        self._patch([dm_autodiff], "cross_entropy", "autodiff.cross_entropy")
        base_tape = dm_model.Tape

        class CountingTape(base_tape):
            def __exit__(self, *exc):
                tr.counts["autodiff.tape_nodes"] += len(self)
                return super().__exit__(*exc)

        self._set(dm_model, "Tape", CountingTape)

        # layers: LSTM layer 1/2 by parameter name, dropout, linear by role
        def make_lstm(fn):
            def lstm_step(layer, x, state):
                role = "layers.lstm2" if layer.Wx.name.endswith("lstm2.Wx") \
                    else "layers.lstm1"
                return call(role, fn, layer, x, state)
            return lstm_step
        self._patch([dm_layers, dm_model], "lstm_step", None, make_lstm)
        self._patch([dm_layers, dm_model], "dropout_apply", "layers.dropout_apply")

        def make_linear(fn):
            def forward(layer, x):
                prefix = layer.W.name.split(".")[0]
                role = prefix if prefix in ("pre_ff", "post_ff") else "head"
                return call("layers.linear." + role, fn, layer, x)
            return forward
        self._patch([dm_layers.LinearLayer], "forward", None, make_linear)

        # model: unroll, step, state, optimizer, checkpoint I/O
        self._patch([dm_model], "train", "model.train")
        self._patch([dm_model], "forward_step", "model.forward_step")

        def make_sequence_loss(fn):
            def sequence_loss(params, seq, start=0, end=None, training=False,
                              rng=None, state=None):
                stop = len(seq) if end is None else end
                if training:
                    tr.counts["model.train_steps"] += stop - start
                return call("model.sequence_loss", fn, params, seq, start, end,
                            training, rng, state)
            return sequence_loss
        self._patch([dm_model], "sequence_loss", None, make_sequence_loss)
        self._patch([dm_model], "detach_state", "model.detach_state")

        def make_clip(fn):
            def clip_global_norm(grads, max_norm):
                total = call("model.clip_global_norm", fn, grads, max_norm)
                tr.counts["model.clip_fired"] += int(total > max_norm)
                return total
            return clip_global_norm
        self._patch([dm_model], "clip_global_norm", None, make_clip)
        self._patch([dm_model], "adam_step", "model.adam_step")
        self._patch([dm_model], "save_checkpoint", "model.save_checkpoint")
        self._patch([dm_model], "load_checkpoint", "model.load_checkpoint")
        self._patch([dm_sampling], "params_from_checkpoint",
                    "model.params_from_checkpoint")

        # sampling
        self._patch([dm_sampling], "generate", "sampling.generate")
        self._patch([dm_sampling], "forward_step", "sampling.forward_step")
        self._patch([dm_sampling], "temperature_adjust", "sampling.temperature_adjust")
        self._patch([dm_sampling], "sample_categorical", "sampling.sample_categorical")

        # encoding: grids and sequences, and the condition windows
        self._patch([dm_encoding, dm_sampling, dm_features, dm_cli],
                    "quantize_song", "encoding.quantize_song")
        self._patch([dm_encoding, dm_cli], "encode_sequence", "encoding.encode_sequence")
        self._patch([dm_encoding, dm_sampling], "window_pre", "encoding.window_pre")
        self._patch([dm_encoding, dm_sampling], "window_post", "encoding.window_post")

        # features, t-SNE, synth
        def make_song_features(fn):
            def song_global_features(song):
                tr.counts["features.bars"] += len(song.bars)
                return call("features.song_global_features", fn, song)
            return song_global_features
        self._patch([dm_features, dm_cli], "song_global_features", None,
                    make_song_features)

        def make_tsne(fn):
            def tsne_embed(vectors, *args, **kwargs):
                tr.counts["tsne.points"] += len(vectors)
                return call("tsne.tsne_embed", fn, vectors, *args, **kwargs)
            return tsne_embed
        self._patch([dm_tsne], "tsne_embed", None, make_tsne)
        self._patch([dm_tsne], "conditional_probabilities", "tsne.conditional_probabilities")
        self._patch([dm_synth], "synth_song", "synth.synth_song")
        self._patch([dm_synth], "synth_songs", "synth.synth_songs")

        # file writes: every module binds its own name for the helper
        def make_write(fn):
            def atomic_write_text(path, text):
                call("ioutil.atomic_write_text", fn, path, text)
                tr.counts["ioutil.bytes_written"] += os.path.getsize(path)
                if tr._stack and tr.names[tr._stack[-1]] == "model.save_checkpoint":
                    tr.counts["model.ckpt_bytes"] += os.path.getsize(path)
            return atomic_write_text
        self._patch([dm_ioutil, dm_model, dm_features, dm_cli, dm_synth],
                    "atomic_write_text", None, make_write)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: (names, start, end, parent, request)."""
        return (np.array(self.names, dtype=object), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64),
                np.array(self.request, dtype=np.int64))

    def save(self, path):
        """Write every span to a compressed .npz file (name table + columns)."""
        names, start, end, parent, request = self.arrays()
        table, codes = np.unique(names.astype(str), return_inverse=True)
        np.savez_compressed(path, name_table=table, name=codes,
                            start=start, end=end, parent=parent, request=request)


def self_times(start, end, parent):
    """Per-span duration minus the time its direct children cover.

    Children of one single-threaded parent never overlap each other, so the
    covered time is the sum of their durations, each clipped to the parent.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    child = np.flatnonzero(parent >= 0)
    if len(child):
        p = parent[child]
        lo = np.maximum(start[child], start[p])
        hi = np.minimum(end[child], end[p])
        np.add.at(covered, p, np.maximum(hi - lo, 0.0))
    return (end - start) - covered


def layer_metrics(tracer):
    """The per-layer metrics, by name, from a finished trace."""
    names, start, end, parent, _ = tracer.arrays()
    own = self_times(start, end, parent)
    total = end - start
    self_s = Counter()
    incl_s = Counter()
    calls = Counter()
    for name, s, t in zip(names, own, total):
        self_s[name] += s
        incl_s[name] += t
        calls[name] += 1
    counts = tracer.counts

    def own_s(*span_names):
        return float(sum(self_s[n] for n in span_names))

    def per(num, den):
        return num / den if den else 0.0

    forward_calls = calls["model.forward_step"] + calls["sampling.forward_step"]
    clip_calls = calls["model.clip_global_norm"]
    m = {
        "autodiff.tape_nodes_per_step": per(counts["autodiff.tape_nodes"],
                                            counts["model.train_steps"]),
        "autodiff.backward_s": own_s("autodiff.backward"),
        "autodiff.backward_calls": calls["autodiff.backward"],
        "layers.lstm1_fwd_s": own_s("layers.lstm1"),
        "layers.lstm2_fwd_s": own_s("layers.lstm2"),
        "layers.lstm_fwd_calls": calls["layers.lstm1"] + calls["layers.lstm2"],
        "layers.dropout_s": own_s("layers.dropout_apply"),
        "layers.dropout_calls_per_step": per(calls["layers.dropout_apply"], forward_calls),
        "model.train_self_s": own_s("model.train"),
        "model.sequence_loss_self_s": own_s("model.sequence_loss"),
        "model.forward_step_self_s": own_s("model.forward_step", "sampling.forward_step"),
        "model.cond_ff_s": own_s("layers.linear.pre_ff", "layers.linear.post_ff"),
        "model.head_ce_s": own_s("layers.linear.head", "autodiff.softmax_rows",
                                 "autodiff.cross_entropy"),
        "model.detach_s": own_s("model.detach_state"),
        "model.clip_s": own_s("model.clip_global_norm"),
        "model.clip_fired_ratio": per(counts["model.clip_fired"], clip_calls),
        "model.adam_s": own_s("model.adam_step"),
        "model.optimizer_steps": calls["model.adam_step"],
        "model.ckpt_save_s": own_s("model.save_checkpoint"),
        "model.ckpt_load_s": own_s("model.load_checkpoint"),
        "model.ckpt_bytes": counts["model.ckpt_bytes"],
        "model.params_from_ckpt_s": own_s("model.params_from_checkpoint"),
        "sampling.generate_s": own_s("sampling.generate"),
        "sampling.forward_s": float(incl_s["sampling.forward_step"]),
        "sampling.sample_s": own_s("sampling.temperature_adjust",
                                   "sampling.sample_categorical"),
        "sampling.draws": calls["sampling.sample_categorical"],
        "encoding.encode_s": own_s("encoding.quantize_song", "encoding.encode_sequence"),
        "encoding.window_s": own_s("encoding.window_pre", "encoding.window_post"),
        "encoding.window_calls": calls["encoding.window_pre"] + calls["encoding.window_post"],
        "features.song_s": own_s("features.song_global_features"),
        "features.bars": counts["features.bars"],
        "tsne.calibrate_s": own_s("tsne.conditional_probabilities"),
        "tsne.embed_s": own_s("tsne.tsne_embed"),
        "tsne.points": counts["tsne.points"],
        "synth.songs_s": own_s("synth.synth_song", "synth.synth_songs"),
        "ioutil.write_s": own_s("ioutil.atomic_write_text"),
        "ioutil.bytes_written": counts["ioutil.bytes_written"],
        "trace.spans": len(names),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_s"] = own_s(f"cli.{sub}")
    return m
