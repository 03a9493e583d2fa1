#!/usr/bin/env python3
"""Train a small model on the synthetic style, then sample drums over a
fresh condition track at several diversity settings.

Takes a few seconds; bump EPOCHS/hidden for better rhythms.
"""

import time

import numpy as np

from drumgen.encoding import (COMPONENTS, Song, decode_words, encode_sequence,
                              quantize_song, save_song)
from drumgen.model import ModelConfig, train
from drumgen.sampling import (GenerationConfig, condition_track_from_song,
                              generate)
from drumgen.synth import STYLES, SynthConfig, synth_song, synth_songs

EPOCHS = 30
style = STYLES["synthrock"]

corpus_cfg = SynthConfig(n_songs=8, bars_per_song=4, meters=((4, 4), (7, 8)),
                         tempo_range=(80, 135), seed=42)
songs = synth_songs(style, corpus_cfg)
model_cfg = ModelConfig(hidden=32, seq_len=16, batch_size=1)
corpus = [encode_sequence(quantize_song(s), model_cfg.w_past,
                          model_cfg.w_future) for s in songs]

t0 = time.time()
ckpt = train(corpus, model_cfg, EPOCHS, snapshot_epochs=(), seed=1)[-1]
hist = ckpt.loss_history
print(f"trained {EPOCHS} epochs in {time.time()-t0:.0f}s; "
      f"per-step loss {hist[0]:.3f} -> {hist[-1]:.3f} (ln512={np.log(512):.3f})")

# A condition track the model never saw: its drums only seed the first bar
eval_cfg = SynthConfig(n_songs=1, bars_per_song=8, meters=((4, 4),),
                       tempo_range=(100, 100), seed=777)
cond_song = synth_song(style, eval_cfg, np.random.default_rng(777))
track = condition_track_from_song(cond_song)

for temperature in (0.5, 1.0, 1.2):
    gc = GenerationConfig(temperature=temperature, seed_steps=16, rng_seed=3)
    words = generate(ckpt, track, gc)
    onsets = decode_words(words)
    grid = quantize_song(cond_song)
    print(f"\nT={temperature}: {len(onsets)} onsets over {len(words)} steps")
    show = min(32, len(words))
    for comp in ("kick", "snare", "chh", "tom_lo"):
        ci = COMPONENTS.index(comp)
        row = "".join("x" if (t, comp) in onsets else "."
                      for t in range(show))
        print(f"  {comp:7s} {row}")
    out = Song(title=f"generated-T{temperature}", bars=cond_song.bars,
               guitar=cond_song.guitar, bass=cond_song.bass, drums=onsets)
    save_song(out, f"generated_T{temperature}.json")
print("\nwrote generated_T*.json")
