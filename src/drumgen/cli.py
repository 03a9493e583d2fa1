"""Command-line pipeline: synthesize a corpus, train, generate, extract
rhythm features, embed them in 2-D, inspect a checkpoint, and
gradient-check the model.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Each setting
is one row of OPTIONS, both a --flag and a key of the optional JSON
config file (--config) of the subcommands that read it; a flag wins
over the file, the file over the default.
"""

import argparse
import csv
import dataclasses
import glob
import io
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import model as dm_model
from . import layers, sampling, synth, tsne
from .autodiff import finite_diff_check
from .encoding import (Song, decode_words, encode_sequence, load_song,
                       quantize_song, save_song)
from .features import (read_features_csv, song_global_features,
                       write_embedding_csv, write_features_csv)
from .ioutil import atomic_write_text


class UsageError(Exception):
    pass


def _parse_meters(text):
    meters = []
    for part in text.split(","):
        try:
            num, den = (int(x) for x in part.split("/"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list like 4/4,7/8, got {text!r}") from None
        meters.append((num, den))
    return tuple(meters)


def _parse_snapshots(text):
    try:
        epochs = tuple(int(x) for x in text.split(",")) if text else ()
        if min(epochs, default=1) < 1:
            raise ValueError
        return epochs
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of epochs of at least 1 like 50,150, got {text!r}") from None


class Option(NamedTuple):
    """One setting: a --flag and a config key. type converts the flag's
    text; int and float rows take that JSON type in a config file, every
    other row a string that type parses."""
    name: str
    type: Callable
    default: object
    help: str
    commands: tuple


OPTIONS = (
    Option("style", str, "synthrock", "corpus style", ("synth",)),
    Option("songs", int, 8, "number of songs", ("synth",)),
    Option("bars", int, 8, "bars per song", ("synth",)),
    Option("meters", _parse_meters, "4/4", "comma list, e.g. 4/4,7/8", ("synth",)),
    Option("tempo_min", float, 80.0, "lowest tempo, bpm", ("synth",)),
    Option("tempo_max", float, 135.0, "highest tempo, bpm", ("synth",)),
    Option("phrase_len", int, 4, "bars per phrase", ("synth",)),
    Option("seed", int, 0, "random seed", ("synth", "train", "generate", "embed")),
    Option("epochs", int, 150, "training epochs", ("train",)),
    Option("snapshots", _parse_snapshots, "50,150", "comma list of epochs", ("train",)),
    Option("hidden", int, 256, "LSTM width", ("train",)),
    Option("dropout", float, 0.2, "dropout rate", ("train",)),
    Option("wpast", int, 4, "past condition window, steps", ("train",)),
    Option("wfuture", int, 4, "future condition window, steps", ("train",)),
    Option("learning_rate", float, 1e-3, "Adam step size", ("train",)),
    Option("seq_len", int, 64, "time steps per training slice", ("train",)),
    Option("batch_size", int, 16, "slices per Adam step", ("train",)),
    Option("log_every", int, 0, "print the loss every N epochs; 0 for never", ("train",)),
    Option("temperature", float, 1.0,
           "diversity; typical values 0.5, 0.8, 1.0, 1.2", ("generate",)),
    Option("seed_steps", int, 16, "ground-truth steps before sampling", ("generate",)),
    Option("label", str, "ground-truth",
           "group label column (e.g. ground-truth, early, late)", ("features",)),
    Option("perplexity", float, 5.0, "t-SNE perplexity", ("embed",)),
    Option("iterations", int, 500, "t-SNE iterations", ("embed",)),
)
_BY_NAME = {o.name: o for o in OPTIONS}


def _load_config_file(path, command):
    """The settings in a JSON config file, type-checked and converted;
    every key must be one that command reads."""
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as e:
            raise UsageError(f"--config {path}: not JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {path}: expected a JSON object of settings, "
                         f"got {type(cfg).__name__}")
    unknown = set(cfg) - set(_BY_NAME)
    if unknown:
        raise UsageError(f"--config {path}: unknown config keys: {sorted(unknown)}")
    foreign = sorted(k for k in cfg if command not in _BY_NAME[k].commands)
    if foreign:
        raise UsageError(f"--config {path}: {command} does not read config keys " + "; ".join(
            f"{k!r} (read by {', '.join(_BY_NAME[k].commands)})" for k in foreign))
    out = {}
    for key, value in cfg.items():
        opt = _BY_NAME[key]
        want = {int: "an integer", float: "a number"}.get(opt.type, "a string")
        if not (dm_model.has_field_type(value, opt.type) if opt.type in (int, float)
                else isinstance(value, str)):
            raise UsageError(f"--config {path}: {key} must be {want}, got {value!r}")
        try:
            out[key] = opt.type(value)
        except argparse.ArgumentTypeError as e:
            raise UsageError(f"--config {path}: {key}: {e}") from None
    return out


def _settings(args):
    """The subcommand's typed settings: a flag wins over the config file,
    and the config file over the default."""
    cfg = _load_config_file(args.config, args.command)
    values = {}
    for opt in OPTIONS:
        if args.command in opt.commands:
            flag = getattr(args, opt.name)
            values[opt.name] = (flag if flag is not None
                                else cfg.get(opt.name, opt.type(opt.default)))
    _check_seed(values.get("seed", 0))
    return argparse.Namespace(**values)


def _check_seed(seed):
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")


def _collect_song_paths(inputs):
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            manifest = os.path.join(item, "manifest.json")
            if os.path.exists(manifest):
                with open(manifest) as fh:
                    try:
                        names = json.load(fh)["files"]
                        if not (isinstance(names, list) and names
                                and all(isinstance(n, str) for n in names)):
                            raise TypeError(f"'files' holds {names!r:.80}")
                        for n in names:
                            if os.path.basename(n) != n or n in ("", ".", ".."):
                                raise ValueError(f"{n!r:.80} is not a plain file name")
                    except (ValueError, KeyError, TypeError) as e:
                        raise ValueError(f"corpus manifest {manifest} is not a JSON object "
                                         f"with a non-empty 'files' list of file names "
                                         f"in its directory: {e!r}") from e
                for name in names:
                    paths.append(os.path.join(item, name))
                    if not os.path.isfile(paths[-1]):
                        raise ValueError(f"corpus manifest {manifest} lists {name!r}, "
                                         f"which is not a file in {item}")
            else:
                paths += sorted(p for p in glob.glob(os.path.join(item, "*.json")))
        else:
            paths.append(item)
    if not paths:
        raise FileNotFoundError(f"no song files found under {inputs}")
    return paths


def _read_song(path, convert):
    """(song, convert(song)) for the song file path; a ValueError from
    convert (an event off the grid, an unsupported meter) names the file."""
    song = load_song(path)
    try:
        return song, convert(song)
    except ValueError as e:
        raise ValueError(f"song file {path}: {e}") from e


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    s = _settings(args)
    if s.style not in synth.STYLES:
        raise UsageError(f"unknown style {s.style!r}; available: {sorted(synth.STYLES)}")
    sc = synth.SynthConfig(n_songs=s.songs, bars_per_song=s.bars, meters=s.meters,
                           tempo_range=(s.tempo_min, s.tempo_max),
                           phrase_len=s.phrase_len, seed=s.seed)
    paths = synth.synth_corpus(synth.STYLES[s.style], sc, args.out)
    print(f"wrote {len(paths)} songs + manifest to {args.out}")
    return 0


def cmd_train(args):
    s = _settings(args)
    mc = dm_model.ModelConfig(hidden=s.hidden, dropout=s.dropout, w_past=s.wpast,
                              w_future=s.wfuture, learning_rate=s.learning_rate,
                              seq_len=s.seq_len, batch_size=s.batch_size)

    def encode(song):
        return encode_sequence(quantize_song(song), mc.w_past, mc.w_future)
    corpus = [_read_song(path, encode)[1] for path in _collect_song_paths(args.corpus)]
    made = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)

    def save(ckpt):
        path = os.path.join(args.out, f"checkpoint_epoch_{ckpt.epoch:04d}.json")
        dm_model.save_checkpoint(ckpt, path)
        print(f"wrote {path}")
    try:  # each snapshot is saved at its epoch, so a failed run keeps those it reached
        final = dm_model.train(corpus, mc, s.epochs, s.snapshots, seed=s.seed,
                               log_every=s.log_every, on_snapshot=save)[-1]
    except Exception:
        if made and not os.listdir(args.out):  # failed before writing anything
            os.rmdir(args.out)
        raise
    save(final)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(("epoch", "loss"))
    w.writerows((i, repr(loss)) for i, loss in enumerate(final.loss_history, start=1))
    atomic_write_text(os.path.join(args.out, "loss.csv"), buf.getvalue())
    print(f"final per-step loss: "
          f"{final.loss_history[-1] if final.loss_history else float('nan')}")
    return 0


def cmd_generate(args):
    s = _settings(args)
    gc = sampling.GenerationConfig(temperature=s.temperature, seed_steps=s.seed_steps,
                                   rng_seed=s.seed)
    weights = dm_model.load_weights(args.checkpoint)
    song, track = _read_song(args.conditions, sampling.condition_track_from_song)
    if gc.seed_steps > len(track):
        raise ValueError(f"--conditions song file {args.conditions} covers {len(track)} "
                         f"steps, fewer than --seed-steps {gc.seed_steps}")
    words = sampling.generate(weights, track, gc)
    out_song = Song(title=f"{song.title}+generated", bars=song.bars,
                    guitar=song.guitar, bass=song.bass,
                    drums=decode_words(words))
    save_song(out_song, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_features(args):
    label = _settings(args).label
    rows = []
    for path in _collect_song_paths(args.songs):
        song, features = _read_song(path, song_global_features)
        name = song.title or os.path.splitext(os.path.basename(path))[0]
        rows.append((name, label, features))
    write_features_csv(args.out, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return 0


def cmd_embed(args):
    s = _settings(args)
    rows = []
    for path in args.features:
        rows += read_features_csv(path)
    try:
        emb = tsne.tsne_embed([vec for _, _, vec in rows], perplexity=s.perplexity,
                              iterations=s.iterations, rng=np.random.default_rng(s.seed))
    except (ValueError, FloatingPointError) as e:
        raise ValueError(f"t-SNE of {', '.join(args.features)}: {e}") from e
    write_embedding_csv(args.out, [p for p, _, _ in rows],
                        [g for _, g, _ in rows], emb.coords)
    print(f"wrote {len(rows)} embedded points to {args.out} "
          f"(final KL {emb.kl:.4f})")
    return 0


def cmd_inspect(args):
    ckpt = dm_model.load_checkpoint(args.checkpoint)
    print("config: " + " ".join(f"{k}={v}" for k, v in
                                dataclasses.asdict(ckpt.config).items()))
    print(f"epoch: {ckpt.epoch}")
    print(f"adam step: {ckpt.adam_t}")
    losses = ckpt.loss_history
    print(f"loss: first {losses[0]:.6f}, min {min(losses):.6f}, last {losses[-1]:.6f}"
          if losses else "loss: none recorded")
    for name, a in ckpt.tensors.items():
        print(f"norm {name}: {np.linalg.norm(a):.6g}")
    print("checksum OK")
    return 0


def cmd_gradcheck(args):
    _check_seed(args.seed)
    # dropout acts only in the lane/tape comparison, which trains
    mc = dm_model.ModelConfig(hidden=4, dropout=0.2, seq_len=3)
    params = dm_model.ModelParams(mc, np.random.default_rng(args.seed))
    song = synth.synth_song(synth.STYLES["synthrock"],
                            synth.SynthConfig(n_songs=1, bars_per_song=2, seed=args.seed),
                            np.random.default_rng(args.seed))
    seq = encode_sequence(quantize_song(song), mc.w_past, mc.w_future)

    err = finite_diff_check(lambda: dm_model.sequence_loss(params, seq, 0, 3)[0],
                            params.parameters())
    ok = err <= 1e-4
    print(f"max relative gradient error over {params.values.size} "
          f"parameters: {err:.3e} ({'OK' if ok else 'FAIL'} vs 1e-4)")

    sizes = (mc.hidden, layers.SMALL_STEP_UNITS + 1)  # small and large steps
    lane_err, worst, hidden = max(_lane_gradient_error(dataclasses.replace(mc, hidden=h), seq,
                                                       args.seed) for h in sizes)
    lane_ok = lane_err <= 1e-10
    print(f"training batch, lane path vs tape path at hidden {sizes[0]} and {sizes[1]}: max "
          f"relative gradient difference {lane_err:.3e} in {worst} at hidden {hidden} "
          f"({'OK' if lane_ok else 'FAIL'} vs 1e-10)")
    return 0 if ok and lane_ok else 1


def _lane_gradient_error(config, seq, seed):
    """(max relative difference, tensor name, hidden size) between the batch gradients
    of the lane path and the tape path at config: two lanes of unequal length plus a
    piece with two slices, with the config's dropout drawn from equal rngs. The heads
    are randomized so that every parameter gets a gradient."""
    rng = np.random.default_rng(seed)
    params = dm_model.ModelParams(config, rng)
    for head in params.heads.values():
        head.W.data[...] = rng.normal(size=head.W.data.shape)
    shapes = dm_model.param_shapes(config)
    w, dw = dm_model._views(params.values, shapes), dm_model._views(params.grads, shapes)
    batch = [(0, seq, 0, 3), (0, seq, 3, 6), (1, seq, 0, 2)]
    grads = []
    for path in (dm_model.lane_batch_backward, dm_model.tape_batch_backward):
        params.grads[...] = 0.0
        path(config, w, dw, batch, {}, np.random.default_rng(seed))
        grads.append(dm_model._views(params.grads.copy(), shapes))
    return max((np.max(np.abs(grads[0][name] - g)) / max(np.max(np.abs(g)), np.finfo(float).tiny),
                name, config.hidden) for name, g in grads[1].items())


# ---------------------------------------------------------------------------

def _add_subcommand(sub, name, func, help_text):
    """A subparser with a flag for each of its OPTIONS rows, --config and --out."""
    p = sub.add_parser(name, help=help_text)
    for opt in OPTIONS:
        if name in opt.commands:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                           type=opt.type, help=f"{opt.help} (default: {opt.default})")
    p.add_argument("--config", help="JSON file of settings; flags override it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=func)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drumgen",
        description="Conditional drum-rhythm generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_subcommand(sub, "synth", cmd_synth, "write a synthetic training corpus")
    p = _add_subcommand(sub, "train", cmd_train, "train on a corpus of song files")
    p.add_argument("corpus", nargs="+", help="song files or corpus directory")
    p = _add_subcommand(sub, "generate", cmd_generate, "sample drums over a condition song")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--conditions", required=True, help="condition Song JSON")
    p = _add_subcommand(sub, "features", cmd_features, "per-piece rhythm feature CSV")
    p.add_argument("songs", nargs="+", help="song files or directories")
    p = _add_subcommand(sub, "embed", cmd_embed, "t-SNE 2-D map of feature CSVs")
    p.add_argument("features", nargs="+", help="features CSV files")

    p = sub.add_parser("inspect", help="summarize a checkpoint and verify its checksum")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # usage error -> exit 2, runtime failure -> exit 1, with a real message
        config = getattr(args, "config", None)
        note = f" (settings read from --config {config})" if config and config not in str(e) else ""
        print(f"{'usage error' if isinstance(e, UsageError) else 'error'}: {e}{note}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
