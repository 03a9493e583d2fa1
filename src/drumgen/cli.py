"""Command-line pipeline: synthesize a corpus, train, generate, extract
rhythm features, embed them in 2-D, inspect a checkpoint, and
gradient-check the model.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Flags override
values from an optional JSON config file (--config).
"""

import argparse
import csv
import dataclasses
import glob
import io
import json
import os
import sys

import numpy as np

from . import model as dm_model
from . import sampling, synth, tsne
from .autodiff import finite_diff_check
from .encoding import (Song, decode_words, encode_sequence, load_song,
                       quantize_song, save_song)
from .features import (read_features_csv, song_global_features,
                       write_embedding_csv, write_features_csv)
from .ioutil import atomic_write_text

CONFIG_KEYS = {
    "style", "songs", "bars", "meters", "seed", "epochs", "snapshots",
    "hidden", "dropout", "wpast", "wfuture", "temperature", "seed_steps",
    "perplexity", "out", "label", "tempo_min", "tempo_max", "phrase_len",
    "learning_rate", "seq_len", "batch_size", "iterations",
}


class UsageError(Exception):
    pass


def _load_config_file(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _opt(args, cfg, key, default):
    v = getattr(args, key, None)
    if v is not None:
        return v
    return cfg.get(key, default)


def _parse_meters(text):
    meters = []
    for part in text.split(","):
        num, den = part.strip().split("/")
        meters.append((int(num), int(den)))
    return tuple(meters)


def _parse_snapshots(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _collect_song_paths(inputs):
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            manifest = os.path.join(item, "manifest.json")
            if os.path.exists(manifest):
                with open(manifest) as fh:
                    names = json.load(fh)["files"]
                paths += [os.path.join(item, n) for n in names]
            else:
                paths += sorted(p for p in glob.glob(os.path.join(item, "*.json")))
        else:
            paths.append(item)
    if not paths:
        raise FileNotFoundError(f"no song files found under {inputs}")
    return paths


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    cfg = _load_config_file(args.config)
    style_name = _opt(args, cfg, "style", "synthrock")
    if style_name not in synth.STYLES:
        raise UsageError(f"unknown style {style_name!r}; available: {sorted(synth.STYLES)}")
    meters = _opt(args, cfg, "meters", "4/4")
    if isinstance(meters, str):
        meters = _parse_meters(meters)
    sc = synth.SynthConfig(
        n_songs=int(_opt(args, cfg, "songs", 8)),
        bars_per_song=int(_opt(args, cfg, "bars", 8)),
        meters=meters,
        tempo_range=(float(_opt(args, cfg, "tempo_min", 80.0)),
                     float(_opt(args, cfg, "tempo_max", 135.0))),
        phrase_len=int(_opt(args, cfg, "phrase_len", 4)),
        seed=int(_opt(args, cfg, "seed", 0)),
    )
    paths = synth.synth_corpus(synth.STYLES[style_name], sc, args.out)
    print(f"wrote {len(paths)} songs + manifest to {args.out}")
    return 0


def _model_config(args, cfg):
    return dm_model.ModelConfig(
        hidden=int(_opt(args, cfg, "hidden", 256)),
        dropout=float(_opt(args, cfg, "dropout", 0.2)),
        w_past=int(_opt(args, cfg, "wpast", 4)),
        w_future=int(_opt(args, cfg, "wfuture", 4)),
        learning_rate=float(_opt(args, cfg, "learning_rate", 1e-3)),
        seq_len=int(_opt(args, cfg, "seq_len", 64)),
        batch_size=int(_opt(args, cfg, "batch_size", 16)),
    )


def cmd_train(args):
    cfg = _load_config_file(args.config)
    mc = _model_config(args, cfg)
    snapshots = _opt(args, cfg, "snapshots", "50,150")
    if isinstance(snapshots, str):
        snapshots = _parse_snapshots(snapshots)
    epochs = int(_opt(args, cfg, "epochs", 150))
    seed = int(_opt(args, cfg, "seed", 0))

    songs = [load_song(p) for p in _collect_song_paths(args.corpus)]
    corpus = [encode_sequence(quantize_song(s), mc.w_past, mc.w_future)
              for s in songs]
    checkpoints = dm_model.train(corpus, mc, epochs, snapshots, seed=seed,
                                 log_every=args.log_every)

    os.makedirs(args.out, exist_ok=True)
    for ckpt in checkpoints:
        path = os.path.join(args.out, f"checkpoint_epoch_{ckpt.epoch:04d}.json")
        dm_model.save_checkpoint(ckpt, path)
        print(f"wrote {path}")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(("epoch", "loss"))
    for i, loss in enumerate(checkpoints[-1].loss_history, start=1):
        w.writerow((i, repr(loss)))
    atomic_write_text(os.path.join(args.out, "loss.csv"), buf.getvalue())
    print(f"final per-step loss: "
          f"{checkpoints[-1].loss_history[-1] if checkpoints[-1].loss_history else float('nan')}")
    return 0


def cmd_generate(args):
    cfg = _load_config_file(args.config)
    gc = sampling.GenerationConfig(
        temperature=float(_opt(args, cfg, "temperature", 1.0)),
        seed_steps=int(_opt(args, cfg, "seed_steps", 16)),
        rng_seed=int(_opt(args, cfg, "seed", 0)),
    )
    ckpt = dm_model.load_checkpoint(args.checkpoint)
    song = load_song(args.conditions)
    track = sampling.condition_track_from_song(song)
    words = sampling.generate(ckpt, track, gc)
    out_song = Song(title=f"{song.title}+generated", bars=song.bars,
                    guitar=song.guitar, bass=song.bass,
                    drums=decode_words(words))
    save_song(out_song, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_features(args):
    cfg = _load_config_file(args.config)
    label = _opt(args, cfg, "label", "ground-truth")
    rows = []
    for path in _collect_song_paths(args.songs):
        song = load_song(path)
        name = song.title or os.path.splitext(os.path.basename(path))[0]
        rows.append((name, label, song_global_features(song)))
    write_features_csv(args.out, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return 0


def cmd_embed(args):
    cfg = _load_config_file(args.config)
    rows = []
    for path in args.features:
        rows += read_features_csv(path)
    emb = tsne.tsne_embed(
        [vec for _, _, vec in rows],
        perplexity=float(_opt(args, cfg, "perplexity", 5.0)),
        iterations=int(_opt(args, cfg, "iterations", 500)),
        rng=np.random.default_rng(int(_opt(args, cfg, "seed", 0))),
    )
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
    for name, a in sorted(ckpt.tensors.items()):
        print(f"norm {name}: {np.linalg.norm(a):.6g}")
    print("checksum OK")
    return 0


def cmd_gradcheck(args):
    from .synth import STYLES, SynthConfig, synth_song
    seed = args.seed if args.seed is not None else 0
    mc = dm_model.ModelConfig(hidden=4, dropout=0.0, seq_len=3)
    rng = np.random.default_rng(seed)
    params = dm_model.init_params(mc, rng)
    song = synth_song(STYLES["synthrock"],
                      SynthConfig(n_songs=1, bars_per_song=2, seed=seed),
                      np.random.default_rng(seed))
    seq = encode_sequence(quantize_song(song), mc.w_past, mc.w_future)

    def loss_fn():
        loss, _ = dm_model.sequence_loss(params, seq, 0, 3, training=False)
        return loss

    err = finite_diff_check(loss_fn, params.parameters())
    ok = err <= 1e-4
    print(f"max relative gradient error over {sum(p.data.size for p in params.parameters())} "
          f"parameters: {err:.3e} ({'OK' if ok else 'FAIL'} vs 1e-4)")

    lane_err = _lane_gradient_error(params, seq, seed)
    lane_ok = lane_err <= 1e-10
    print(f"training batch, lane path vs tape path: max relative gradient difference "
          f"{lane_err:.3e} ({'OK' if lane_ok else 'FAIL'} vs 1e-10)")
    return 0 if ok and lane_ok else 1


def _lane_gradient_error(params, seq, seed):
    """Max relative difference between the batch gradients of the lane
    path and the tape path: two lanes of unequal length plus a piece with
    two slices, dropout 0.2 drawn from equal rngs. The heads are
    randomized so that every parameter gets a gradient."""
    rng = np.random.default_rng(seed)
    for head in params.heads.values():
        head.W.data[...] = rng.normal(size=head.W.data.shape)
    params.config = dataclasses.replace(params.config, dropout=0.2)
    batch = [(0, seq, 0, 3), (0, seq, 3, 6), (1, seq, 0, 2)]
    grads = []
    for path in (dm_model.lane_batch_backward, dm_model.tape_batch_backward):
        for p in params.parameters():
            p.reset_grad()
        path(params, batch, {}, np.random.default_rng(seed))
        grads.append([p.grad.copy() for p in params.parameters()])
    return max(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny)
               for a, b in zip(*grads))


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="drumgen",
        description="Conditional drum-rhythm generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic training corpus")
    p.add_argument("--style", default=None)
    p.add_argument("--songs", type=int, default=None)
    p.add_argument("--bars", type=int, default=None)
    p.add_argument("--meters", default=None, help="comma list, e.g. 4/4,7/8")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a corpus of song files")
    p.add_argument("corpus", nargs="+", help="song files or corpus directory")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--snapshots", default=None, help="comma list of epochs")
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--wpast", type=int, default=None)
    p.add_argument("--wfuture", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample drums over a condition song")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--conditions", required=True, help="condition Song JSON")
    p.add_argument("--temperature", type=float, default=None,
                   help="diversity; typical values 0.5, 0.8, 1.0, 1.2")
    p.add_argument("--seed-steps", dest="seed_steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("features", help="per-piece rhythm feature CSV")
    p.add_argument("songs", nargs="+", help="song files or directories")
    p.add_argument("--label", default=None,
                   help="group label column (e.g. ground-truth, early, late)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("embed", help="t-SNE 2-D map of feature CSVs")
    p.add_argument("features", nargs="+", help="features CSV files")
    p.add_argument("--perplexity", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("inspect", help="summarize a checkpoint and verify its checksum")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure -> exit 1 with a real message
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
