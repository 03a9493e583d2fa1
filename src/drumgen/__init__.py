"""drumgen: conditional LSTM drum-rhythm generation on a hand-rolled
float64 autodiff core, with rhythm-feature evaluation and exact t-SNE."""

from .autodiff import Tensor, Parameter, Tape, backward, finite_diff_check
from .encoding import (Bar, Song, StepGrid, EncodedSequence, quantize_song,
                       encode_sequence, encode_condition, drum_word_index,
                       word_components, grid_words, decode_words, load_song,
                       save_song)
from .layers import LinearLayer, LSTMLayer, lstm_step, stacked_lstm_step, \
    dropout_apply
from .model import (ModelConfig, ModelParams, Checkpoint, Weights,
                    forward_step, sequence_loss, adam_step, train,
                    save_checkpoint, load_checkpoint, load_weights)
from .sampling import (GenerationConfig, ConditionTrack, temperature_adjust,
                       sample_categorical, generate, condition_track_from_song)
from .features import (bar_features, lhl_syncopation, global_features,
                       song_global_features, FEATURE_NAMES, GLOBAL_FEATURE_NAMES)
from .tsne import tsne_embed, Embedding2D
from .synth import StyleSpec, SynthConfig, STYLES, synth_song, synth_songs, \
    synth_corpus

__version__ = "0.1.0"
