import hashlib
import json
import os

import pytest

from drumgen.cli import main
from drumgen.encoding import load_song, quantize_song
from drumgen.features import read_features_csv


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
            out[os.path.relpath(p, root)] = \
                hashlib.sha256(open(p, "rb").read()).hexdigest()
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


def test_gradcheck_passes(capsys):
    assert run_cli(["gradcheck", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "OK" in lines[0]
    assert lines[1].startswith("training batch, lane path vs tape path")
    assert lines[1].endswith("(OK vs 1e-10)")


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
    assert json.loads((pipeline / "run" / "checkpoint_epoch_0001.json")
                      .read_text())["epoch"] == 1
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
