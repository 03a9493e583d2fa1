"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 4-7 share one seeded training run (8 synthetic songs, meters
4/4 and 7/8 only, 150 epochs, snapshots at 50 and 150); everything it
needs is produced by the module-scoped fixture below. Run with -s to see
the per-criterion lines as they happen.
"""

import hashlib
import os
import pathlib

import numpy as np
import pytest
import scipy.stats

from drumgen import layers as dl
from drumgen import model as dm
from drumgen.autodiff import finite_diff_check
from drumgen.cli import main as cli_main
from drumgen.encoding import (COMPONENTS, Bar, Song, condition_windows, decode_words,
                              encode_sequence, quantize_song)
from drumgen.features import (FEATURE_NAMES, bar_features, lhl_raw_syncopation,
                              lhl_syncopation, metrical_weights,
                              song_global_features)
from drumgen.model import (ModelConfig, forward_step, load_checkpoint,
                           params_from_checkpoint, save_checkpoint,
                           sequence_loss, train)
from drumgen.sampling import (GenerationConfig, condition_track_from_song,
                              generate, sample_categorical, temperature_adjust)
from drumgen.synth import (STYLES, SynthConfig, phrase_mark_for, realize_song,
                           synth_songs)
from drumgen.tsne import conditional_probabilities, tsne_embed

SYNTHROCK = STYLES["synthrock"]

# shared training run for criteria 4-7
CORPUS_SEED = 101
TRAIN_SEED = 7
TRAIN_MODEL = ModelConfig(hidden=48, seq_len=16, batch_size=1)
EPOCHS = 150
SNAPSHOTS = (50, 150)


@pytest.fixture()
def verdict(capsys):
    def _report(num, ok, detail):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
        assert ok, f"criterion {num}: {detail}"
    return _report


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(n_songs=8, bars_per_song=4, meters=((4, 4), (7, 8)),
                      tempo_range=(80, 135), phrase_len=4, seed=CORPUS_SEED)
    songs = synth_songs(SYNTHROCK, cfg)
    corpus = [encode_sequence(quantize_song(s), TRAIN_MODEL.w_past,
                              TRAIN_MODEL.w_future) for s in songs]
    ckpts = train(corpus, TRAIN_MODEL, EPOCHS, SNAPSHOTS, seed=TRAIN_SEED)
    assert [c.epoch for c in ckpts] == [50, 150]
    return {"songs": songs, "corpus": corpus, "early": ckpts[0], "late": ckpts[-1]}


def generated_song(ckpt, cond_song, temperature, seed_steps, rng_seed):
    track = condition_track_from_song(cond_song)
    words = generate(ckpt, track,
                     GenerationConfig(temperature=temperature,
                                      seed_steps=seed_steps, rng_seed=rng_seed))
    return Song(title="gen", bars=cond_song.bars, guitar=cond_song.guitar,
                bass=cond_song.bass, drums=decode_words(words)), words


def onset_grid(song):
    grid = quantize_song(song)
    return grid, grid.drum_onsets


def test_criterion_1_architecture_wiring(verdict, monkeypatch):
    cfg = ModelConfig()
    params = dm.ModelParams(cfg, np.random.default_rng(0))
    ok = cfg.hidden == 256 and cfg.lstm_layers == 2 and cfg.dropout == 0.2
    ok &= len(params.lstm_stacks) == 3 and len(params.heads) == 3
    for s, vocab in zip(("K", "H", "T"), (4, 8, 16)):
        stack = params.lstm_stacks[s]
        ok &= len(stack) == 2
        ok &= stack[0].Wx.data.shape == (4 * 256, vocab + 256)
        ok &= stack[1].Wx.data.shape == (4 * 256, 256)
        ok &= params.heads[s].W.data.shape == (vocab, 512)
    ok &= params.pre_ff.W.data.shape == (256, 31)
    ok &= params.post_ff.W.data.shape == (256, 31)

    rates = []
    real = dl.dropout_apply

    def counting(x, rate, training, rng):
        rates.append(rate)
        return real(x, rate, training, rng)

    monkeypatch.setattr(dl, "dropout_apply", counting)
    monkeypatch.setattr(dm, "dropout_apply", counting)
    forward_step(params, [0, 0, 0], np.zeros(31), np.zeros(31),
                 params.zero_state(), training=True, rng=np.random.default_rng(1))
    ok &= len(rates) == 11 and all(r == 0.2 for r in rates)
    verdict(1, ok, "3 LSTM stacks (2x256), 2 shared FF modules, 3 softmax "
                   f"heads, dropout 0.2 at {len(rates)} connection points")


def test_criterion_2_initial_loss(verdict):
    cfg = SynthConfig(n_songs=2, bars_per_song=2, meters=((4, 4), (7, 8)),
                      seed=17)
    songs = synth_songs(SYNTHROCK, cfg)
    params = dm.ModelParams(ModelConfig(), np.random.default_rng(3))
    worst = 0.0
    for song in songs:
        seq = encode_sequence(quantize_song(song))
        loss, _ = sequence_loss(params, seq, 0, 8)
        worst = max(worst, abs(float(loss.data) - np.log(512.0)))
    verdict(2, worst <= 1e-6,
            f"zero-initialized heads: per-step loss within {worst:.2e} of ln 512")


def test_criterion_3_gradient_check(verdict):
    mc = ModelConfig(hidden=4, dropout=0.0, seq_len=3)
    params = dm.ModelParams(mc, np.random.default_rng(5))
    song = synth_songs(SYNTHROCK, SynthConfig(n_songs=1, bars_per_song=2,
                                              seed=5))[0]
    seq = encode_sequence(quantize_song(song), mc.w_past, mc.w_future)

    def loss_fn():
        loss, _ = sequence_loss(params, seq, 0, 3, training=False)
        return loss

    err = finite_diff_check(loss_fn, params.parameters())
    verdict(3, err <= 1e-4,
            f"sequence loss vs central differences: max relative error {err:.2e}")


def test_criterion_4_overfit(verdict, trained):
    final_loss = trained["late"].loss_history[-1]
    params = params_from_checkpoint(trained["late"])
    correct = total = 0
    for seq in trained["corpus"]:
        state = params.zero_state()
        pre, post = condition_windows(seq.cond, seq.w_past, seq.w_future)
        for t in range(len(seq)):
            probs = forward_step(params, seq.inputs[t], pre[t], post[t], state)
            for si in range(3):
                pick = int(np.argmax(temperature_adjust(probs[si].data, 0.01)))
                correct += int(pick == seq.targets[t][si])
                total += 1
    acc = correct / total
    verdict(4, final_loss < 0.5 and acc >= 0.95,
            f"8 songs, {EPOCHS} epochs: final per-step loss {final_loss:.3f} "
            f"(< 0.5), argmax word accuracy {acc:.3f} (>= 0.95)")


def test_criterion_5_conditional_responsiveness(verdict, trained):
    fill_end = end_bars = fill_mid = mid_bars = 0
    coincide = kicks = bass_in_zone = zone_steps = 0
    for i in range(4):
        meter = [(4, 4), (4, 4), (7, 8), (4, 4)][i]
        tempo = [85.0, 100.0, 120.0, 95.0][i]
        bars = [Bar(meter[0], meter[1], tempo,
                    phrase_mark_for(b + 1 + i % 3, 4)) for b in range(8)]
        cond_song = realize_song(SYNTHROCK, bars, np.random.default_rng(500 + i))
        gen, _ = generated_song(trained["late"], cond_song, temperature=0.5,
                                seed_steps=16, rng_seed=i)
        grid, onsets = onset_grid(gen)
        toms = [COMPONENTS.index(c) for c in ("tom_hi", "tom_mid", "tom_lo")]
        for bi, (start, n) in enumerate(zip(grid.bar_start, grid.steps_per_bar)):
            if start < 16:
                continue  # inside the copied seed
            seg = onsets[start:start + n]
            has_fill = all(seg[:, t].any() for t in toms)
            if bars[bi].phrase_mark == "end":
                end_bars += 1
                fill_end += has_fill
            elif bars[bi].phrase_mark == "mid":
                mid_bars += 1
                fill_mid += has_fill
        zone = set(range(16, grid.total_steps))
        kick_steps = set(np.flatnonzero(onsets[:, 0])) & zone
        bass_steps = {int(ev[0]) for ev in cond_song.bass}
        kicks += len(kick_steps)
        coincide += len(kick_steps & bass_steps)
        bass_in_zone += len(bass_steps & zone)
        zone_steps += len(zone)

    end_rate = fill_end / end_bars
    mid_rate = fill_mid / mid_bars
    rate = coincide / kicks if kicks else 0.0
    baseline = bass_in_zone / zone_steps
    ok = end_rate >= 0.8 and mid_rate <= 0.2 and rate >= 2 * baseline
    verdict(5, ok,
            f"shifted phrase labels: fills in {end_rate:.0%} of end bars "
            f"(>= 80%), {mid_rate:.0%} of mid bars (<= 20%); kick-bass "
            f"coincidence {rate:.2f} vs random-step {baseline:.2f} "
            f"({rate / baseline:.1f}x >= 2x)")


def test_criterion_6_unknown_meter_generalization(verdict, trained):
    train_density = np.mean([song_global_features(s)[0]
                             for s in trained["songs"]])
    ratios = {}
    for meter in ((3, 8), (9, 8)):
        bars = [Bar(meter[0], meter[1], 100.0, phrase_mark_for(b, 4))
                for b in range(8)]
        cond_song = realize_song(SYNTHROCK, bars,
                                 np.random.default_rng(900 + meter[0]))
        gen, words = generated_song(trained["late"], cond_song, temperature=0.5,
                                    seed_steps=bars[0].steps,
                                    rng_seed=3)
        grid = quantize_song(cond_song)
        assert len(words) == grid.total_steps == sum(b.steps for b in bars)
        ratios[meter] = song_global_features(gen)[0] / train_density
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    verdict(6, ok,
            "trained on {4/4, 7/8} only; generated under 3/8 and 9/8 with "
            "correct lengths, density/train ratios "
            + ", ".join(f"{m[0]}/{m[1]}={r:.2f}" for m, r in ratios.items()))


def test_criterion_7_early_late_trend(verdict, trained):
    eval_songs = []
    for i in range(3):
        num, den = [(4, 4), (7, 8), (4, 4)][i]
        bars = [Bar(num, den, [90.0, 112.0, 125.0][i], phrase_mark_for(b, 4))
                for b in range(8)]
        eval_songs.append(realize_song(SYNTHROCK, bars,
                                       np.random.default_rng(700 + i)))
    gt = np.array([song_global_features(s) for s in trained["songs"]])

    def distances(ckpt, seed):
        feats = []
        for j, cond_song in enumerate(eval_songs):
            gen, _ = generated_song(ckpt, cond_song, temperature=0.8,
                                    seed_steps=16, rng_seed=seed * 100 + j)
            feats.append(song_global_features(gen))
        return np.array(feats)

    wins = 0
    pairs = []
    for seed in range(5):
        fe = distances(trained["early"], seed)
        fl = distances(trained["late"], seed)
        pool = np.concatenate([gt, fe, fl])
        mu, sd = pool.mean(0), pool.std(0)
        keep = sd > 0

        def z(x):
            return (x[:, keep] - mu[keep]) / sd[keep]

        centroid = z(gt).mean(0)
        de = np.linalg.norm(z(fe) - centroid, axis=1).mean()
        dl_ = np.linalg.norm(z(fl) - centroid, axis=1).mean()
        wins += dl_ < de
        pairs.append(f"{de:.2f}/{dl_:.2f}")
    verdict(7, wins >= 3,
            f"late snapshot closer to ground-truth centroid in {wins}/5 seeds "
            f"(early/late distances: {', '.join(pairs)})")


def brute_force_lhl(pattern, weights):
    score = 0
    for r in range(len(pattern)):
        if pattern[r]:
            continue
        prev = [j for j in range(r) if pattern[j]]
        if prev and weights[r] > weights[prev[-1]]:
            score += weights[r] - weights[prev[-1]]
    return score


def test_criterion_8_feature_oracle(verdict):
    w = metrical_weights(8)
    top = max(brute_force_lhl([(b >> i) & 1 for i in range(8)], w)
              for b in range(256))
    exact = all(
        lhl_raw_syncopation([(b >> i) & 1 for i in range(8)], w)
        == brute_force_lhl([(b >> i) & 1 for i in range(8)], w)
        and lhl_syncopation([(b >> i) & 1 for i in range(8)], w)
        == brute_force_lhl([(b >> i) & 1 for i in range(8)], w) / top
        for b in range(256))

    grid = np.zeros((16, 9), dtype=bool)
    grid[[0, 4, 8, 12], 0] = True  # four-on-the-floor kick
    f = dict(zip(FEATURE_NAMES, bar_features(grid)))
    hand = (f["weak_ratio"] == 0.0 and f["density_k"] == 0.125
            and f["half_symmetry"] == 1.0 and f["density"] == 4 / 144
            and f["syncopation"] == 0.0)
    lone = np.zeros((16, 9), dtype=bool)
    lone[2, 0] = True  # lone kick on a half-beat step
    hand &= dict(zip(FEATURE_NAMES, bar_features(lone)))["weak_ratio"] == 1.0
    verdict(8, exact and hand,
            "syncopation equals brute force on all 256 eight-step patterns; "
            "four-on-the-floor features match hand values exactly")


def test_criterion_9_tsne_sanity(verdict):
    rng = np.random.default_rng(5)
    tri = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 10 * np.sqrt(3) / 2]])
    basis, _ = np.linalg.qr(rng.normal(size=(14, 2)))
    X = np.concatenate([c + rng.normal(scale=0.1, size=(10, 14))
                        for c in tri @ basis.T])
    labels = np.repeat(np.arange(3), 10)

    Z = (X - X.mean(0)) / X.std(0)
    P = conditional_probabilities(Z, 5.0)
    row_sums_ok = np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
    calib = max(abs(np.exp(-(row[row > 0] * np.log(row[row > 0])).sum()) - 5.0)
                for row in P)

    emb = tsne_embed(X, perplexity=5, iterations=500,
                     rng=np.random.default_rng(7))
    d = ((emb.coords[:, None] - emb.coords[None]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    hits = sum((labels[np.argsort(d[i])[:3]] == labels[i]).sum()
               for i in range(30))
    purity = hits / (3 * 30)
    verdict(9, purity >= 0.9 and calib <= 1e-3 and row_sums_ok,
            f"3-cluster benchmark: 3-NN purity {purity:.2f} (>= 0.9), "
            f"perplexity calibrated within {calib:.1e} (<= 1e-3), "
            f"P rows sum to 1 +- 1e-9")


def test_criterion_10_sampler_statistics(verdict):
    p = np.array([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(123)
    draws = [sample_categorical(temperature_adjust(p, 1.0), rng)
             for _ in range(10_000)]
    counts = np.bincount(draws, minlength=4)
    chi = scipy.stats.chisquare(counts, f_exp=p * 10_000)
    argmax_ok = True
    check_rng = np.random.default_rng(9)
    for _ in range(200):
        q = check_rng.dirichlet(np.ones(6))
        adj = temperature_adjust(q, 0.01)
        argmax_ok &= int(np.argmax(q)) == int(np.argmax(adj))
        argmax_ok &= adj[np.argmax(q)] == 1.0
        argmax_ok &= sample_categorical(adj, check_rng) == int(np.argmax(q))
    verdict(10, chi.pvalue > 0.001 and argmax_ok,
            f"chi-square GOF over 10^4 draws: p={chi.pvalue:.3f} (not rejected "
            f"at 0.001); T<=0.01 always returns the argmax")


def test_criterion_11_determinism_and_persistence(verdict, tmp_path):
    def pipeline(root):
        corpus = str(root / "corpus")
        run = str(root / "run")
        assert cli_main(["synth", "--songs", "3", "--bars", "4", "--seed", "21",
                         "--out", corpus]) == 0
        assert cli_main(["train", corpus, "--epochs", "2", "--snapshots", "2",
                         "--hidden", "6", "--seed", "21", "--out", run]) == 0
        assert cli_main(["generate",
                         "--checkpoint", os.path.join(run, "checkpoint_epoch_0002.json"),
                         "--conditions", os.path.join(corpus, "synthrock-000.json"),
                         "--seed", "22", "--out", str(root / "gen.json")]) == 0
        assert cli_main(["features", corpus, str(root / "gen.json"),
                         "--out", str(root / "f.csv")]) == 0
        assert cli_main(["embed", str(root / "f.csv"), "--perplexity", "2",
                         "--iterations", "60", "--seed", "23",
                         "--out", str(root / "e.csv")]) == 0
        sums = {}
        for dirpath, _, files in os.walk(root):
            for f in files:
                p = os.path.join(dirpath, f)
                sums[os.path.relpath(p, root)] = hashlib.sha256(
                    pathlib.Path(p).read_bytes()).hexdigest()
        return sums

    identical = pipeline(tmp_path / "a") == pipeline(tmp_path / "b")

    cfg = SynthConfig(n_songs=2, bars_per_song=4, seed=31)
    corpus = [encode_sequence(quantize_song(s))
              for s in synth_songs(SYNTHROCK, cfg)]
    mc = ModelConfig(hidden=6, seq_len=16, batch_size=2)
    full = train(corpus, mc, epochs=3, snapshot_epochs=(), seed=31)[-1]
    mid = train(corpus, mc, epochs=2, snapshot_epochs=(), seed=31)[-1]
    path = tmp_path / "mid.json"
    save_checkpoint(mid, path)
    resumed = train(corpus, mc, epochs=3, snapshot_epochs=(),
                    resume=load_checkpoint(path))[-1]
    bit_exact = all(np.array_equal(resumed.tensors[k], full.tensors[k])
                    for k in full.tensors)
    bit_exact &= resumed.loss_history == full.loss_history
    verdict(11, identical and bit_exact,
            "fixed-seed pipeline runs produce identical checksums; "
            "save/load/resume matches uninterrupted training bit-exactly")
