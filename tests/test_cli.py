import hashlib
import json
import math
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from drumgen import cli
from drumgen.cli import OPTIONS, build_parser, main
from drumgen.encoding import encode_sequence, load_song, quantize_song
from drumgen.features import GLOBAL_FEATURE_NAMES, read_features_csv, write_features_csv
from drumgen.layers import HOIST_MAX_LANE_UNITS
from drumgen import model as dm_model
from drumgen.model import load_checkpoint


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse usage errors
        return e.code


def tree_checksums(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
    return out


def test_no_arguments_is_usage_error(capsys):
    assert run_cli([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error():
    assert run_cli(["transmogrify"]) == 2


def test_unknown_flag_is_usage_error():
    assert run_cli(["synth", "--out", "x", "--frobnicate"]) == 2


def test_generate_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    song = tmp_path / "song.json"
    song.write_text(json.dumps({"title": "x", "bars": [
        {"num": 4, "den": 4, "bpm": 120, "phrase": "start"}],
        "guitar": [], "bass": [], "drums": []}))
    code = run_cli(["generate", "--checkpoint", str(tmp_path / "missing.json"),
                    "--conditions", str(song), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "missing.json" in capsys.readouterr().err


@pytest.mark.parametrize("temperature", ["nan", "inf"])
def test_generate_non_finite_temperature_rejected(tmp_path, capsys, temperature):
    # rejected before the checkpoint is read
    code = run_cli(["generate", "--checkpoint", str(tmp_path / "missing.json"),
                    "--conditions", str(tmp_path / "song.json"),
                    "--temperature", temperature, "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "temperature must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_config_file_with_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"songs": 2, "warp_factor": 9}))
    code = run_cli(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


def test_config_file_naming_out_rejected(tmp_path, capsys):
    # output paths are the --out flag only, so out is not a config key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"songs": 2, "out": str(tmp_path / "elsewhere")}))
    code = run_cli(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "'out'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command, config, named", [
    ("synth", {"hidden": 8}, ["'hidden' (read by train)"]),
    ("train", {"songs": 2, "temperature": 0.5},
     ["'songs' (read by synth)", "'temperature' (read by generate)"]),
    ("generate", {"seed": 1, "perplexity": 3}, ["'perplexity' (read by embed)"]),
], ids=["synth-hidden", "train-songs-temperature", "generate-perplexity"])
def test_config_key_of_another_subcommand_is_usage_error(tmp_path, capsys, command,
                                                        config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run_cli([command, *REQUIRED[command], "--config", str(cfg),
                    "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err and all(text in err for text in named)
    assert "'seed'" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ['[{"songs": 2}]', '{"songs": 2'])
def test_config_file_that_is_not_an_object_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = run_cli(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "cfg.json" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, config, code, named", [
    ("synth", [], {"tempo_min": 200, "tempo_max": 100}, 1, "tempo_range needs finite 0 < low"),
    ("synth", [], {"tempo_min": float("nan")}, 1, "tempo_range needs finite 0 < low"),
    ("synth", [], {"seed": -1}, 2, "seed must be non-negative, got -1"),
    ("synth", ["--seed", "-1"], {}, 2, "seed must be non-negative, got -1"),
    ("train", ["--seed", "-2"], {}, 2, "seed must be non-negative, got -2"),
    ("generate", ["--seed", "-1"], {}, 2, "seed must be non-negative, got -1"),
    ("embed", [], {"seed": -3}, 2, "seed must be non-negative, got -3"),
    ("gradcheck", ["--seed", "-1"], None, 2, "seed must be non-negative, got -1"),
], ids=["tempo-reversed", "tempo-nan", "synth-seed-config", "synth-seed-flag", "train-seed",
        "generate-seed", "embed-seed-config", "gradcheck-seed"])
def test_bad_tempo_range_or_negative_seed_is_named(tmp_path, capsys, command, flags, config,
                                                   code, named):
    """Caught before numpy sees them: its own messages name neither setting.
    A failed command that read a config file names that file too. A config
    of None is a subcommand without --config and --out."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    files = [] if config is None else ["--config", str(cfg), "--out", str(out)]
    assert run_cli([command, *REQUIRED.get(command, []), *flags, *files]) == code
    err = capsys.readouterr().err
    assert named in err
    assert config is None or f"(settings read from --config {cfg})" in err
    assert not out.exists()


def test_malformed_meters_is_usage_error(tmp_path, capsys):
    code = run_cli(["synth", "--meters", "4-4", "--out", str(tmp_path / "c")])
    assert code == 2
    assert "--meters" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("meters", ["5/16", "4/4,4/3"])
def test_synth_meter_the_encoder_cannot_use_is_named(tmp_path, capsys, meters):
    """A meter outside encoding.SIGNATURES fails before --out exists: train
    would reject the corpus, and 4/3 is not even a Bar."""
    code = run_cli(["synth", "--meters", meters, "--out", str(tmp_path / "c")])
    assert code == 1
    bad = meters.split(",")[-1]
    assert f"meter {bad} is not an encodable time signature" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command, config", [
    ("synth", {"songs": "x"}),
    ("synth", {"meters": 44}),
    ("synth", {"songs": True}),
    ("train", {"snapshots": 5}),
    ("train", {"epochs": 1.7}),
], ids=["songs-str", "meters-int", "songs-bool", "snapshots-int", "epochs-float"])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, config):
    assert run_cli(["synth", "--songs", "1", "--bars", "1",
                    "--out", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    positional = [str(tmp_path / "corpus"), "--hidden", "4"] if command == "train" else []
    code = run_cli([command, *positional, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert next(iter(config)) in err and "cfg.json" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source, text", [
    ("flag", "a,b"), ("flag", "-1,0,7"), ("flag", "0"), ("config", "-1,0,7"), ("config", "3,0"),
], ids=["flag-letters", "flag-below-one", "flag-zero", "config-below-one", "config-zero"])
def test_malformed_snapshots_is_usage_error(tmp_path, capsys, source, text):
    """Epochs below 1 are refused; those past --epochs are skipped
    (test_snapshots_past_the_last_epoch_are_skipped)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snapshots": text}))
    setting = [f"--snapshots={text}"] if source == "flag" else ["--config", str(cfg)]
    code = run_cli(["train", str(tmp_path / "corpus"), *setting, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert ("--snapshots" if source == "flag" else "cfg.json: snapshots") in err
    assert f"epochs of at least 1 like 50,150, got {text!r}" in err
    assert not (tmp_path / "run").exists()


# required arguments of each subcommand that has OPTIONS rows
REQUIRED = {"synth": [], "train": ["corpus"], "features": ["songs"], "embed": ["f.csv"],
            "generate": ["--checkpoint", "c.json", "--conditions", "s.json"]}
# (config value, flag text) for each option type; both differ from every default
SAMPLES = {int: (7, "9"), float: (0.5, "0.25"), str: ("a", "b"),
           cli._parse_meters: ("7/8", "3/4,5/4"), cli._parse_snapshots: ("2", "3,4")}


@pytest.mark.parametrize("opt, command", [(o, c) for o in OPTIONS for c in o.commands],
                         ids=lambda x: x if isinstance(x, str) else x.name)
def test_option_row_from_config_and_flag(tmp_path, opt, command):
    config_value, flag_text = SAMPLES[opt.type]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({opt.name: config_value}))
    argv = [command, *REQUIRED[command], "--config", str(cfg), "--out", "o"]
    flag = "--" + opt.name.replace("_", "-")

    from_config = getattr(cli._settings(build_parser().parse_args(argv)), opt.name)
    from_flag = getattr(cli._settings(build_parser().parse_args(argv + [flag, flag_text])),
                        opt.name)
    assert from_config == opt.type(config_value) != opt.type(opt.default)
    assert from_flag == opt.type(flag_text) != from_config


def test_readme_cli_examples_parse():
    """Every drumgen command in README's CLI block parses, and together
    they use every subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S).group(1)
    text = re.sub(r"#[^\n]*", "", block).replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines() if line.strip()]
    assert all(argv[0] == "drumgen" for argv in commands)
    used = {build_parser().parse_args(argv[1:]).command for argv in commands}
    assert used == {"synth", "train", "generate", "features", "embed", "inspect",
                    "gradcheck"}


@pytest.mark.parametrize("rate", ["NaN", "Infinity"])
def test_train_non_finite_learning_rate_rejected(tmp_path, capsys, rate):
    assert run_cli(["synth", "--songs", "2", "--bars", "1",
                    "--out", str(tmp_path / "corpus")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"learning_rate": {rate}}}')
    code = run_cli(["train", str(tmp_path / "corpus"), "--hidden", "4", "--epochs", "1",
                    "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "learning_rate must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_negative_epochs_rejected_before_writing(tmp_path, capsys):
    assert run_cli(["synth", "--songs", "2", "--bars", "1",
                    "--out", str(tmp_path / "corpus")]) == 0
    code = run_cli(["train", str(tmp_path / "corpus"), "--hidden", "4", "--epochs", "-1",
                    "--out", str(tmp_path / "run")])
    assert code == 1
    assert "epochs must be an int of at least 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("small") / "corpus"
    assert main(["synth", "--songs", "2", "--bars", "2", "--seed", "4",
                 "--out", str(corpus)]) == 0
    return str(corpus)


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_train_out_that_is_a_file_fails_before_training(small_corpus, tmp_path, capsys,
                                                         monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("train ran")
    monkeypatch.setattr(dm_model, "train", never)
    (tmp_path / "run").write_text("not a directory")
    code = run_cli(["train", small_corpus, "--hidden", "4", "--out", str(tmp_path / "run")])
    assert code == 1
    assert str(tmp_path / "run") in capsys.readouterr().err


def test_snapshots_past_the_last_epoch_are_skipped(small_corpus, tmp_path):
    assert main(["train", small_corpus, "--epochs", "2", "--snapshots", "1,7", "--hidden", "4",
                 "--out", str(tmp_path / "run")]) == 0
    assert sorted(os.listdir(tmp_path / "run")) == [
        "checkpoint_epoch_0001.json", "checkpoint_epoch_0002.json", "loss.csv"]


def test_snapshot_is_its_epochs_state_bit_for_bit(small_corpus, tmp_path):
    """An epoch-1 snapshot of a 3-epoch run, from train's returned list and
    from drumgen train's file, saves to the bytes of a 1-epoch run's final
    checkpoint: values, moments, Adam step, RNG state and losses."""
    settings = {"hidden": 8, "dropout": 0.2, "wpast": 4, "wfuture": 4, "learning_rate": 1e-3,
                "seq_len": 64, "batch_size": 16, "seed": 3}
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
    for epochs, snapshots in ((1, ""), (3, "1")):
        assert main(["train", small_corpus, f"--epochs={epochs}", f"--snapshots={snapshots}",
                     *flags, "--out", str(tmp_path / f"run-{epochs}")]) == 0
    want = sha256_of(tmp_path / "run-1" / "checkpoint_epoch_0001.json")
    assert sha256_of(tmp_path / "run-3" / "checkpoint_epoch_0001.json") == want

    config = dm_model.ModelConfig(hidden=8, dropout=0.2, w_past=4, w_future=4,
                                  learning_rate=1e-3, seq_len=64, batch_size=16)
    pieces = [encode_sequence(quantize_song(load_song(path)), 4, 4)
              for path in cli._collect_song_paths([small_corpus])]
    snapshot = dm_model.train(pieces, config, 3, snapshot_epochs=(1,), seed=3)[0]
    dm_model.save_checkpoint(snapshot, tmp_path / "from-list.json")
    assert sha256_of(tmp_path / "from-list.json") == want


def test_snapshots_add_no_training_buffer_to_peak_memory(small_corpus, tmp_path):
    """Each snapshot is written from the live buffers: three snapshots raise
    the traced peak by less than one parameter buffer."""
    peaks = []
    for snapshots in ("1,2,3", ""):
        tracemalloc.start()
        try:
            assert main(["train", small_corpus, "--epochs", "4", f"--snapshots={snapshots}",
                         "--hidden", "64", "--out", str(tmp_path / f"run-{len(peaks)}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    shapes = dm_model.param_shapes(dm_model.ModelConfig(hidden=64))
    buffer_bytes = 8 * sum(math.prod(shape) for shape in shapes.values())
    assert abs(peaks[0] - peaks[1]) < buffer_bytes, (peaks, buffer_bytes)


def test_snapshots_written_before_a_failure_survive_it(small_corpus, tmp_path, capsys,
                                                        monkeypatch):
    calls = []
    batch_backward = dm_model.lane_batch_backward

    def counted(*args):
        calls.append(1)
        return batch_backward(*args)
    monkeypatch.setattr(dm_model, "lane_batch_backward", counted)
    argv = ["train", small_corpus, "--epochs", "4", "--snapshots", "1,2", "--hidden", "4"]
    assert main(argv + ["--out", str(tmp_path / "whole")]) == 0
    per_epoch = len(calls) // 4

    def fails_in_epoch_3(*args):
        if len(calls) == 2 * per_epoch:
            raise RuntimeError("lost power in epoch 3")
        return counted(*args)
    calls.clear()
    monkeypatch.setattr(dm_model, "lane_batch_backward", fails_in_epoch_3)
    capsys.readouterr()
    assert run_cli(argv + ["--out", str(tmp_path / "failed")]) == 1
    assert "lost power in epoch 3" in capsys.readouterr().err
    names = ["checkpoint_epoch_0001.json", "checkpoint_epoch_0002.json"]
    assert sorted(os.listdir(tmp_path / "failed")) == names
    for epoch, name in enumerate(names, start=1):
        assert load_checkpoint(tmp_path / "failed" / name).epoch == epoch
        assert sha256_of(tmp_path / "failed" / name) == sha256_of(tmp_path / "whole" / name)


def test_embed_non_finite_perplexity_rejected(tmp_path, capsys):
    rows = [(f"p{i}", "g", np.random.default_rng(i).normal(size=len(GLOBAL_FEATURE_NAMES)))
            for i in range(5)]
    write_features_csv(tmp_path / "f.csv", rows)
    code = run_cli(["embed", str(tmp_path / "f.csv"), "--perplexity", "nan",
                    "--out", str(tmp_path / "map.csv")])
    assert code == 1
    assert "perplexity must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


def test_embed_zero_iterations_rejected(tmp_path, capsys):
    rows = [(f"p{i}", "g", np.random.default_rng(i).normal(size=len(GLOBAL_FEATURE_NAMES)))
            for i in range(5)]
    write_features_csv(tmp_path / "f.csv", rows)
    code = run_cli(["embed", str(tmp_path / "f.csv"), "--perplexity", "2",
                    "--iterations", "0", "--out", str(tmp_path / "map.csv")])
    assert code == 1
    assert "iterations must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


BAR_4_4 = {"num": 4, "den": 4, "bpm": 120.0, "phrase": "mid"}


@pytest.mark.parametrize("doc, message", [
    ({"bars": [{"num": 4, "den": 4, "bpm": float("nan"), "phrase": "mid"}]},
     "tempo must be positive and finite, got nan"),
    ({"bars": [{"num": 4, "den": 4, "bpm": True, "phrase": "mid"}]},
     "tempo must be positive and finite, got True"),
    ({"bars": [{"num": 4.5, "den": 4, "bpm": 120.0, "phrase": "mid"}]},
     "bar numerator must be an int, got 4.5"),
    ({"bars": [{"num": 4, "den": True, "bpm": 120.0, "phrase": "mid"}]},
     "bar denominator must be an int, got True"),
    ({"title": "no bars"}, "lacks the key 'bars'"),
    ([{"bars": []}], "the top level is not a JSON object"),
    ({"bars": [[4, 4, 120.0, "mid"]]}, "'bars' is not a list of JSON objects"),
    ({"bars": 4}, "'bars' is not a list of JSON objects"),
    ('{"bars": [', "is not JSON: Expecting value"),  # text, written as is
    ({"bars": [BAR_4_4], "drums": [[0]]}, "drums event [0] is not [step, component]"),
    ({"bars": [BAR_4_4], "guitar": [[0, 1]]}, "guitar event [0, 1] is not [step, duration, pitch]"),
    ({"bars": [BAR_4_4], "guitar": 5}, "'guitar' is not a list of lists"),
    ({"bars": [BAR_4_4], "drums": [["a", "kick"]]},
     "drums event ['a', 'kick'] is not [step, component]"),
    ({"bars": [BAR_4_4], "bass": [[0, 1, "x"]]},
     "bass event [0, 1, 'x'] is not [step, duration, pitch]"),
    ({"bars": [{"num": 4, "den": 4, "bpm": None, "phrase": "mid"}]},
     "tempo must be positive and finite, got None"),
    ({"bars": [{"num": 4, "den": 4, "bpm": {"x": 1}, "phrase": "mid"}]},
     "tempo must be positive and finite, got {'x': 1}"),
])
def test_features_rejects_malformed_song_file(tmp_path, capsys, doc, message):
    (tmp_path / "song.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = run_cli(["features", str(tmp_path / "song.json"), "--out", str(tmp_path / "f.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "song.json" in err and message in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("event, message", [
    ({"guitar": [[0, 1, 200]]}, "guitar pitch out of range [0,127]: 200"),
    ({"drums": [[99, "kick"]]}, "drum event step 99 outside grid of 16 steps"),
    ({"drums": [[10 ** 400, "kick"]]}, "is not [step, component]"),
])
def test_features_names_the_song_file_of_an_event_off_the_grid(tmp_path, capsys, event,
                                                               message):
    """Events that load but do not quantize, and a step too large for a
    float, name the song file."""
    (tmp_path / "song.json").write_text(json.dumps({"bars": [BAR_4_4], **event}))
    code = run_cli(["features", str(tmp_path / "song.json"), "--out", str(tmp_path / "f.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"song file {tmp_path / 'song.json'}: " in err and message in err
    assert not (tmp_path / "f.csv").exists()


def test_embed_rejects_empty_features_file(tmp_path, capsys):
    (tmp_path / "f.csv").write_text("")
    code = run_cli(["embed", str(tmp_path / "f.csv"), "--out", str(tmp_path / "map.csv")])
    assert code == 1
    assert "unexpected features CSV header in" in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


@pytest.mark.parametrize("text, message", [
    ('{"style": "synthrock"}', "KeyError('files')"),
    ('{"files": [', "JSONDecodeError"),
    ('["a.json"]', "TypeError"),
    ('{"files": "ab"}', "TypeError(\"'files' holds 'ab'\")"),
    ('{"files": [1]}', "TypeError(\"'files' holds [1]\")"),
])
def test_corpus_manifest_malformed_is_named(tmp_path, capsys, text, message):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "manifest.json").write_text(text)
    code = run_cli(["train", str(tmp_path / "corpus"), "--epochs", "1", "--out",
                    str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert "corpus manifest " in err and "manifest.json is not a JSON object" in err
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "generate"])
def test_unsupported_time_signature_names_the_song_file(pipeline, tmp_path, capsys, command):
    """A 3/16 bar is a valid Bar that the condition vector cannot encode:
    features accepts it, train and generate name the file they reject."""
    song = tmp_path / "odd.json"
    song.write_text(json.dumps({"bars": [{"num": 3, "den": 16, "bpm": 120.0, "phrase": "mid"}]}))
    argv = (["train", str(song), "--epochs", "1"] if command == "train" else
            ["generate", "--checkpoint", str(pipeline / "run" / "checkpoint_epoch_0002.json"),
             "--conditions", str(song), "--seed-steps", "1"])
    code = run_cli(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "odd.json" in err and "time signature 3/16 not in the supported list" in err
    assert not (tmp_path / "out").exists()
    assert run_cli(["features", str(song), "--out", str(tmp_path / "f.csv")]) == 0


@pytest.mark.parametrize("damage, message", [
    (lambda vec: np.where(np.arange(len(vec)) == 3, np.nan, vec),
     "f.csv, line 3: nan is not a finite number"),
    (lambda vec: vec[:-1], "f.csv, line 3: 15 columns, the header has 16"),
    (lambda vec: np.full_like(vec, 1e300), "f.csv: overflow encountered"),
])
def test_embed_rejects_malformed_feature_rows(tmp_path, capsys, damage, message):
    rows = [(f"p{i}", "g", np.random.default_rng(i).normal(size=len(GLOBAL_FEATURE_NAMES)))
            for i in range(5)]
    rows[1] = (*rows[1][:2], damage(rows[1][2]))
    write_features_csv(tmp_path / "f.csv", rows)
    code = run_cli(["embed", str(tmp_path / "f.csv"), "--perplexity", "2",
                    "--out", str(tmp_path / "map.csv")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


def test_embed_rejects_non_numeric_feature_value(tmp_path, capsys):
    rows = [(f"p{i}", "g", np.random.default_rng(i).normal(size=len(GLOBAL_FEATURE_NAMES)))
            for i in range(5)]
    write_features_csv(tmp_path / "f.csv", rows)
    lines = (tmp_path / "f.csv").read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:3] + ["abc"] + cells[4:])
    (tmp_path / "f.csv").write_text("\n".join(lines) + "\n")
    code = run_cli(["embed", str(tmp_path / "f.csv"), "--perplexity", "2",
                    "--out", str(tmp_path / "map.csv")])
    assert code == 1
    assert "f.csv, line 3: could not convert string to float: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


@pytest.mark.parametrize("text, message", [
    (b"piece,group\xff," + ",".join(GLOBAL_FEATURE_NAMES).encode() + b"\n",
     "f.csv is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ("\n".join([",".join(("piece", "group") + GLOBAL_FEATURE_NAMES)]
               + [",".join([f"p{i}", "g"] + ["0.5"] * len(GLOBAL_FEATURE_NAMES))
                  for i in range(2)]),
     "t-SNE of {path}: t-SNE needs at least 3 points, got 2"),
], ids=["not-utf8", "two-rows"])
def test_embed_names_the_features_file(tmp_path, capsys, text, message):
    """Text that is not UTF-8, and a file that t-SNE cannot embed, fail naming the file."""
    path = tmp_path / "f.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = run_cli(["embed", str(path), "--perplexity", "1", "--out", str(tmp_path / "map.csv")])
    assert code == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "map.csv").exists()


def test_gradcheck_passes(capsys):
    assert run_cli(["gradcheck", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "OK" in lines[0]
    # one size in each recurrence order of the lane ops
    sizes = (4, HOIST_MAX_LANE_UNITS + 1)
    assert lines[1].startswith(f"training batch, lane path vs tape path at hidden "
                               f"{sizes[0]} and {sizes[1]}: ")
    assert lines[1].endswith("(OK vs 1e-10)")
    name, hidden = re.search(r" in (\S+) at hidden (\d+) \(OK", lines[1]).groups()
    assert int(hidden) in sizes
    assert name in dm_model.param_shapes(dm_model.ModelConfig(hidden=int(hidden)))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> generate -> features -> embed, all via the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = str(root / "corpus")
    run = str(root / "run")
    steps = [
        ["synth", "--songs", "4", "--bars", "4", "--meters", "4/4",
         "--seed", "1", "--out", corpus],
        ["train", corpus, "--epochs", "2", "--snapshots", "1,2",
         "--hidden", "6", "--seed", "1", "--out", run],
    ]
    for argv in steps:
        assert main(argv) == 0
    ckpt = os.path.join(run, "checkpoint_epoch_0002.json")
    gen = str(root / "generated.json")
    assert main(["generate", "--checkpoint", ckpt,
                 "--conditions", os.path.join(corpus, "synthrock-000.json"),
                 "--temperature", "1.0", "--seed-steps", "8", "--seed", "2",
                 "--out", gen]) == 0
    feats = str(root / "features.csv")
    assert main(["features", corpus, gen, "--label", "ground-truth",
                 "--out", feats]) == 0
    emb = str(root / "embedding.csv")
    assert main(["embed", feats, "--perplexity", "3", "--iterations", "50",
                 "--seed", "4", "--out", emb]) == 0
    return root


def test_pipeline_outputs_exist_and_parse(pipeline):
    assert load_checkpoint(pipeline / "run" / "checkpoint_epoch_0001.json").epoch == 1
    gen = load_song(pipeline / "generated.json")
    grid = quantize_song(gen)
    assert grid.total_steps == 64
    rows = read_features_csv(pipeline / "features.csv")
    assert len(rows) == 5  # 4 corpus songs + 1 generated
    lines = (pipeline / "embedding.csv").read_text().strip().splitlines()
    assert lines[0] == "piece,x,y,group"
    assert len(lines) == 6


def test_loss_csv_written(pipeline):
    lines = (pipeline / "run" / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3


def test_pipeline_reproducible_checksums(tmp_path):
    def run_once(root):
        corpus = str(root / "corpus")
        run = str(root / "run")
        assert main(["synth", "--songs", "3", "--bars", "4", "--seed", "5",
                     "--out", corpus]) == 0
        assert main(["train", corpus, "--epochs", "1", "--snapshots", "1",
                     "--hidden", "4", "--seed", "5", "--out", run]) == 0
        assert main(["generate",
                     "--checkpoint", os.path.join(run, "checkpoint_epoch_0001.json"),
                     "--conditions", os.path.join(corpus, "synthrock-001.json"),
                     "--seed", "6", "--out", str(root / "gen.json")]) == 0
        return tree_checksums(root)

    a = run_once(tmp_path / "a")
    b = run_once(tmp_path / "b")
    assert a == b


def test_inspect_prints_summary_and_writes_nothing(pipeline, capsys):
    before = tree_checksums(pipeline)
    ckpt = os.path.join(pipeline, "run", "checkpoint_epoch_0002.json")
    assert run_cli(["inspect", ckpt]) == 0
    assert tree_checksums(pipeline) == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config: hidden=6 lstm_layers=2 ")
    assert lines[1:3] == ["epoch: 2", "adam step: 2"]
    assert lines[3].startswith("loss: first ") and ", min " in lines[3]
    norms = [line.split()[1] for line in lines if line.startswith("norm ")]
    assert norms == [name + ":" for name in sorted(load_checkpoint(ckpt).tensors)]
    assert lines[-1] == "checksum OK"


def flip_byte_in_section(src, dst, section):
    """Copy checkpoint src to dst with one byte flipped 200 bytes into its
    tensors or moments section."""
    raw = bytearray(src.read_bytes())
    start = 16 + int.from_bytes(raw[8:16], "little")  # after magic, length, header
    header = json.loads(raw[16:start])
    if section == "moments":
        start += header["sections"]["tensors"]["length"]
    raw[start + 200] ^= 1
    dst.write_bytes(bytes(raw))


def test_inspect_bad_checkpoint_is_runtime_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    flip_byte_in_section(pipeline / "run" / "checkpoint_epoch_0002.json", bad, "tensors")
    assert run_cli(["inspect", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "checksum OK" not in captured.out
    assert "checksum mismatch" in captured.err and "bad.json" in captured.err
    assert os.listdir(tmp_path) == ["bad.json"]


def test_generate_ignores_damaged_moments_that_inspect_rejects(pipeline, tmp_path, capsys):
    """generate reads the weights only, so a flipped byte in the moments
    section leaves its song unchanged, while a full load and inspect fail."""
    good = pipeline / "run" / "checkpoint_epoch_0002.json"
    bad = tmp_path / "bad.json"
    flip_byte_in_section(good, bad, "moments")
    songs = []
    for ckpt in (good, bad):
        out = tmp_path / f"gen-{ckpt.stem}.json"
        assert run_cli(["generate", "--checkpoint", str(ckpt),
                        "--conditions", str(pipeline / "corpus" / "synthrock-001.json"),
                        "--seed", "3", "--out", str(out)]) == 0
        songs.append(out.read_bytes())
    assert songs[0] == songs[1]
    with pytest.raises(dm_model.CheckpointError, match="moments section"):
        load_checkpoint(bad)
    capsys.readouterr()
    assert run_cli(["inspect", str(bad)]) == 1
    assert "checksum mismatch in the moments section" in capsys.readouterr().err
