"""The four workloads: inputs made from a seed, the timed operations, and the
checks on every output.

Each workload is a class with
  * `setup()`: build the inputs; timed separately as set-up,
  * `ops`: the operations of one pass, in order; each returns a `Sample`,
  * `min_ops`: how many operations a run makes at least,
  * `finish()`: the untimed work after the timed loop (features, t-SNE,
    quality checks), returning the quality metrics.

Every call goes through drumgen's public modules; `Scale` sets the sizes.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import drumgen.cli as dm_cli
import drumgen.encoding as dm_encoding
import drumgen.features as dm_features
import drumgen.model as dm_model
import drumgen.sampling as dm_sampling
import drumgen.synth as dm_synth
import drumgen.tsne as dm_tsne

# loss of the zero-initialised heads: uniform over 4 * 8 * 16 word triples
LN_512 = math.log(512.0)
LOSS_SLACK = 1e-9  # float rounding of the per-step mean at exactly ln 512
TEMPERATURES = (0.01, 0.5, 1.0, 1.2)
SEED_STEPS = 16
TRAIN_METERS = ((4, 4), (7, 8))
UNSEEN_METERS = ((3, 4), (5, 4))
# below and above synthrock's switch from eighth to sixteenth hi-hats
TEMPO_CLASSES = ((80.0, 105.0), (110.0, 135.0))
# Every workload trains with this seed (initialisation, shuffles, dropout).
# The workload seed makes the inputs: corpus content, condition tracks and
# sampling seeds. A seed-dependent training trajectory would spread the
# quality metrics across seeds by 7-15% instead of 1-3%.
MODEL_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; FULL is the benchmark, TINY the self-test."""
    bars: int = 4                 # per song; 4 bars of 4/4 fill one 64-step slice
    train_songs: int = 16         # 16 slices per epoch fill one batch of 16
    train_epochs: int = 2         # epoch 1 runs before any update at batch 16
    hidden: int = 256             # train-paper, generate-fanout, cli-pipeline
    accept_hidden: int = 48
    gen_train_songs: int = 4
    gen_seeds: int = 4            # 8 tracks x 4 temperatures x 4 seeds = 128
    setup_min_repeats: int = 3    # set-up repeats until both minimums are met
    setup_min_seconds: float = 0.5


FULL = Scale()
TINY = replace(FULL, bars=2, train_songs=2, hidden=8, accept_hidden=8,
               gen_train_songs=2, gen_seeds=1, setup_min_repeats=1,
               setup_min_seconds=0.0)


@dataclass
class Sample:
    """One timed operation: wall seconds and model time steps it covered."""
    seconds: float
    steps: int


class Checks:
    """Tally of checked operations and the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def require(self, name, ok):
        """A further condition on an operation already counted."""
        if not ok and name not in self.failures:
            self.failures.append(name)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def _style():
    return dm_synth.STYLES["synthrock"]


def strata(n, meters):
    """(meter, tempo range) of song i: meters cycle fastest, then tempo class."""
    return [(meters[i % len(meters)], TEMPO_CLASSES[(i // len(meters)) % len(TEMPO_CLASSES)])
            for i in range(n)]


def stratified_songs(seed, n, bars, meters, prefix):
    """n synthrock songs, one derived rng per song.

    Meter and tempo class of song i are fixed, so every seed gives the same
    corpus shape and the same mix of slow and fast hi-hat patterns; the seed
    moves the tempo within its class, the phrase phase and the ornaments.
    """
    children = np.random.SeedSequence(seed).spawn(n)
    return [dm_synth.synth_song(
                _style(),
                dm_synth.SynthConfig(bars_per_song=bars, meters=(meter,), tempo_range=tempo),
                np.random.default_rng(child), title=f"{prefix}-{i:03d}")
            for i, (child, (meter, tempo)) in enumerate(zip(children, strata(n, meters)))]


def encode(songs, config):
    return [dm_encoding.encode_sequence(dm_encoding.quantize_song(s),
                                        config.w_past, config.w_future)
            for s in songs]


def losses_ok(losses):
    return bool(losses) and all(math.isfinite(x) and x <= LN_512 + LOSS_SLACK
                                for x in losses)


def learned_ok(losses):
    """The final loss lies below ln 512. Training that never changes the
    parameters keeps the heads at zero, and so the loss at ln 512."""
    return losses[-1] < LN_512 - LOSS_SLACK


def words_ok(words, track):
    """[T x 3], inside each stream's vocabulary, seed span copied verbatim."""
    words = np.asarray(words)
    if words.shape != (len(track), 3):
        return False
    for si, vocab in enumerate(dm_encoding.VOCAB_SIZES):
        if words[:, si].min() < 0 or words[:, si].max() >= vocab:
            return False
    return np.array_equal(words[:SEED_STEPS], track.seed_words[:SEED_STEPS])


def generated_song(song, words):
    return dm_encoding.Song(title=f"{song.title}+generated", bars=song.bars,
                            guitar=song.guitar, bass=song.bass,
                            drums=dm_encoding.decode_words(words))


def feature_l1(generated, truth):
    """Mean over pieces of the L1 distance between global feature vectors."""
    return float(np.mean([np.abs(g - t).sum() for g, t in zip(generated, truth)]))


class TrainWorkload:
    """Whole `model.train` calls from fresh parameters on a 4/4 + 7/8 corpus."""

    min_ops = 1

    def __init__(self, config, eval_temperature, seed, scale):
        self.config = config
        self.eval_temperature = eval_temperature
        self.seed = seed
        self.scale = scale
        self.checks = Checks()
        self.final_loss = None
        self.checkpoint = None

    def setup(self):
        sc = self.scale
        self.songs = stratified_songs(self.seed, sc.train_songs, sc.bars,
                                      TRAIN_METERS, "train")
        self.corpus = encode(self.songs, self.config)
        self.steps_per_call = sc.train_epochs * sum(len(s) for s in self.corpus)

    @property
    def ops(self):
        return [self.train_once]

    def train_once(self):
        self.checkpoint = None  # peak memory must not depend on the call count
        t0 = perf_counter()
        ckpt = dm_model.train(self.corpus, self.config, self.scale.train_epochs,
                              snapshot_epochs=(), seed=MODEL_SEED)[-1]
        sample = Sample(perf_counter() - t0, self.steps_per_call)
        loss = ckpt.loss_history[-1]
        if self.checks.op("train.losses", losses_ok(ckpt.loss_history)):
            self.checks.require("train.learned", learned_ok(ckpt.loss_history))
            # every call starts from the same state, so the loss repeats bit for bit
            if self.final_loss is None:
                self.final_loss = loss
            self.checks.require("train.deterministic", loss == self.final_loss)
        self.checkpoint = ckpt
        return sample

    def finish(self):
        """One piece from the trained model over every corpus song, at
        eval_temperature, and one argmax piece twice."""
        gen, truth = [], []
        for i, song in enumerate(self.songs):
            track = dm_sampling.condition_track_from_song(song)
            gc = dm_sampling.GenerationConfig(temperature=self.eval_temperature,
                                              seed_steps=SEED_STEPS, rng_seed=self.seed * 1000 + i)
            words = dm_sampling.generate(self.checkpoint, track, gc)
            self.checks.op("generate.words", words_ok(words, track))
            gen.append(dm_features.song_global_features(generated_song(song, words)))
            truth.append(dm_features.song_global_features(song))
        track = dm_sampling.condition_track_from_song(self.songs[0])
        argmax = [dm_sampling.generate(self.checkpoint, track, dm_sampling.GenerationConfig(
                      temperature=TEMPERATURES[0], seed_steps=SEED_STEPS, rng_seed=self.seed + k))
                  for k in range(2)]
        self.checks.op("generate.argmax", words_ok(argmax[0], track)
                       and np.array_equal(argmax[0], argmax[1]))
        return {"train_loss": self.final_loss, "gen_feature_l1": feature_l1(gen, truth)}


class GenerateWorkload:
    """Requests = condition track x temperature x seed, one `generate` each."""

    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale
        self.checks = Checks()
        self.outputs = {}  # request index -> words of its first run

    def setup(self):
        sc = self.scale
        config = dm_model.ModelConfig(hidden=sc.hidden, seq_len=16, batch_size=1)
        songs = stratified_songs(self.seed, sc.gen_train_songs, sc.bars,
                                 TRAIN_METERS, "train")
        # a brief run so that samples are not uniform (heads start at zero)
        self.checkpoint = dm_model.train(encode(songs, config), config, 1,
                                         snapshot_epochs=(), seed=MODEL_SEED)[-1]
        meters = TRAIN_METERS + UNSEEN_METERS
        self.track_songs = stratified_songs(self.seed + 1, len(meters) * len(TEMPO_CLASSES),
                                            sc.bars, meters, "cond")
        self.tracks = [dm_sampling.condition_track_from_song(s) for s in self.track_songs]
        # seed-major order, so any prefix of a pass mixes every track and temperature
        self.requests = [(ti, temp, self.seed * 1000 + k)
                         for k in range(sc.gen_seeds)
                         for temp in TEMPERATURES
                         for ti in range(len(self.tracks))]

    @property
    def ops(self):
        return [lambda i=i: self.generate_one(i) for i in range(len(self.requests))]

    @property
    def min_ops(self):
        # one whole pass: the quality metric covers every request, and p90
        # needs 100 samples
        return len(self.requests)

    def generate_one(self, index):
        ti, temp, rng_seed = self.requests[index]
        track = self.tracks[ti]
        gc = dm_sampling.GenerationConfig(temperature=temp, seed_steps=SEED_STEPS,
                                          rng_seed=rng_seed)
        t0 = perf_counter()
        words = dm_sampling.generate(self.checkpoint, track, gc)
        sample = Sample(perf_counter() - t0, len(track))
        if self.checks.op("generate.words", words_ok(words, track)):
            first = self.outputs.setdefault(index, words)
            self.checks.require("generate.deterministic", np.array_equal(first, words))
        return sample

    def finish(self):
        """Features of every output and one t-SNE over truth plus outputs."""
        losses = self.checkpoint.loss_history
        if self.checks.op("train.losses", losses_ok(losses)):
            self.checks.require("train.learned", learned_ok(losses))
        truth = [dm_features.song_global_features(s) for s in self.track_songs]
        by_track = {}
        for index, words in sorted(self.outputs.items()):
            ti, temp, _ = self.requests[index]
            if temp <= dm_sampling.ARGMAX_TEMPERATURE:
                self.checks.op("generate.argmax",
                               np.array_equal(by_track.setdefault(ti, words), words))
        gen_features = [dm_features.song_global_features(
                            generated_song(self.track_songs[self.requests[i][0]], w))
                        for i, w in sorted(self.outputs.items())]
        pairs = [truth[self.requests[i][0]] for i in sorted(self.outputs)]
        emb = dm_tsne.tsne_embed(truth + gen_features, perplexity=5.0,
                                 rng=np.random.default_rng(self.seed))
        self.checks.op("tsne.kl", math.isfinite(emb.kl))
        return {"train_loss": self.checkpoint.loss_history[-1],
                "gen_feature_l1": feature_l1(gen_features, pairs)}


class CliWorkload:
    """In-process `drumgen.cli.main`: synth x4 -> train -> generate x6 ->
    features x2 -> embed, in a fresh directory per pipeline. With `tracer`
    set, each `cli.main` call is a span named after its subcommand."""

    min_ops = 1
    tracer = None
    EPOCHS = 2
    # (condition song, temperature); the last request repeats the first with
    # another seed, for the argmax check
    GENERATE = ((0, 0.01), (0, 0.5), (0, 1.2), (1, 0.01), (1, 1.0), (0, 0.01))

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.checks = Checks()
        self.runs = 0
        self.quality = None

    def setup(self):
        """The pipeline's inputs: a work directory, one synth config per
        tempo class, and two condition songs (slow, fast) in a meter the
        corpus does not have."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.tempo_configs = []
        for k, (lo, hi) in enumerate(TEMPO_CLASSES):
            path = os.path.join(self.workdir, f"tempo-{k}.json")
            with open(path, "w") as fh:
                json.dump({"tempo_min": lo, "tempo_max": hi}, fh)
            self.tempo_configs.append(path)
        conds = stratified_songs(self.seed + 1, len(TEMPO_CLASSES), self.scale.bars,
                                 UNSEEN_METERS[:1], "cond")
        self.cond_paths = [os.path.join(self.workdir, f"{c.title}.json") for c in conds]
        for song, path in zip(conds, self.cond_paths):
            dm_encoding.save_song(song, path)
        self.tracks = [dm_sampling.condition_track_from_song(c) for c in conds]
        trained = sum(self.scale.bars * dm_encoding.Bar(a, b, 100.0, "mid").steps
                      for a, b in TRAIN_METERS) * len(TEMPO_CLASSES)
        self.steps = self.EPOCHS * trained + sum(len(self.tracks[c]) for c, _ in self.GENERATE)

    @property
    def ops(self):
        return [self.pipeline]

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if self.tracer is None:
                code = dm_cli.main(argv)
            else:
                code = self.tracer.call(f"cli.{argv[0]}", dm_cli.main, argv)
        self.codes.append(code)
        return out.getvalue()

    def pipeline(self):
        d = os.path.join(self.workdir, f"run-{self.runs:03d}")
        self.runs += 1
        self.codes = []
        bars = str(self.scale.bars)
        ckpt = os.path.join(d, "run", f"checkpoint_epoch_{self.EPOCHS:04d}.json")
        gen_paths = [os.path.join(d, f"gen-{k}.json") for k in range(len(self.GENERATE))]
        corpora = []

        t0 = perf_counter()
        for k, ((a, b), config) in enumerate(
                (m, c) for c in self.tempo_configs for m in TRAIN_METERS):
            corpora.append(os.path.join(d, f"corpus-{k}"))
            self._main(["synth", "--songs", "1", "--bars", bars, "--meters", f"{a}/{b}",
                        "--config", config, "--seed", str(self.seed * 10 + k),
                        "--out", corpora[-1]])
        self._main(["train", *corpora, "--epochs", str(self.EPOCHS), "--snapshots", "1",
                    "--hidden", str(self.scale.hidden), "--seed", str(MODEL_SEED),
                    "--out", os.path.join(d, "run")])
        for k, ((cond, temp), path) in enumerate(zip(self.GENERATE, gen_paths)):
            self._main(["generate", "--checkpoint", ckpt, "--conditions", self.cond_paths[cond],
                        "--temperature", str(temp), "--seed-steps", str(SEED_STEPS),
                        "--seed", str(self.seed + k), "--out", path])
        self._main(["features", *corpora, *self.cond_paths, "--label", "ground-truth",
                    "--out", os.path.join(d, "gt.csv")])
        self._main(["features", *gen_paths[:-1], "--label", "generated",
                    "--out", os.path.join(d, "gen.csv")])
        embed_out = self._main(["embed", os.path.join(d, "gt.csv"), os.path.join(d, "gen.csv"),
                                "--seed", str(self.seed), "--out", os.path.join(d, "map.csv")])
        sample = Sample(perf_counter() - t0, self.steps)

        self._check(d, gen_paths, embed_out)
        shutil.rmtree(d, ignore_errors=True)
        return sample

    def _check(self, d, gen_paths, embed_out):
        if not self.checks.op("cli.exit_codes", all(c == 0 for c in self.codes)):
            return
        run = os.path.join(d, "run")
        for name in sorted(os.listdir(run)):
            if name.startswith("checkpoint_"):
                try:
                    dm_model.load_checkpoint(os.path.join(run, name))
                    self.checks.op("cli.checkpoint_reload", True)
                except dm_model.CheckpointError:
                    self.checks.op("cli.checkpoint_reload", False)
        with open(os.path.join(run, "loss.csv")) as fh:
            losses = [float(line.split(",")[1]) for line in fh.read().split()[1:]]
        if self.checks.op("train.losses", losses_ok(losses)):
            self.checks.require("train.learned", learned_ok(losses))

        words = [dm_sampling.condition_track_from_song(dm_encoding.load_song(p)).seed_words
                 for p in gen_paths]
        for w, (cond, _) in zip(words, self.GENERATE):
            self.checks.op("generate.words", words_ok(w, self.tracks[cond]))
        self.checks.op("generate.argmax", np.array_equal(words[0], words[-1]))

        kl = re.search(r"final KL (\S+)\)", embed_out)
        self.checks.op("tsne.kl", kl is not None and math.isfinite(float(kl.group(1))))

        truth = {row[0]: row[2] for row in dm_features.read_features_csv(os.path.join(d, "gt.csv"))}
        gen = [row[2] for row in dm_features.read_features_csv(os.path.join(d, "gen.csv"))]
        pairs = [truth[f"cond-{cond:03d}"] for cond, _ in self.GENERATE[:-1]]
        quality = {"train_loss": losses[-1], "gen_feature_l1": feature_l1(gen, pairs)}
        if self.quality is None:
            self.quality = quality
        self.checks.require("cli.deterministic", quality == self.quality)

    def finish(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        return dict(self.quality or {"train_loss": math.nan, "gen_feature_l1": math.nan})


WORKLOADS = ("train-paper", "train-accept", "generate-fanout", "cli-pipeline")


def make(name, seed, scale, workdir):
    """The named workload, not yet set up."""
    # Quality is judged at argmax where the model has had enough updates for
    # argmax to be stable across seeds (train-accept: 120 Adam steps), and on
    # samples where it has not (train-paper: one step at batch 16).
    if name == "train-paper":
        return TrainWorkload(dm_model.ModelConfig(hidden=scale.hidden), 1.0,
                             seed, scale)
    if name == "train-accept":
        return TrainWorkload(dm_model.ModelConfig(hidden=scale.accept_hidden, seq_len=16,
                                                  batch_size=1), TEMPERATURES[0], seed, scale)
    if name == "generate-fanout":
        return GenerateWorkload(seed, scale)
    if name == "cli-pipeline":
        return CliWorkload(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
