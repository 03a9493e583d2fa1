"""Fuzzed files for every file the CLI reads: the song file, the corpus
manifest, the features CSV and the --config JSON.

Each example starts from a valid file, applies one drawn mutation (delete a
key or an element, replace a value with a drawn JSON value, truncate the text
or insert invalid UTF-8) and runs a command that reads the file. The oracle:
the command returns 0, or 1 or 2 with the file's path in stderr; no exception
escapes, and a failed command leaves no output file or directory behind.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen.cli import main
from drumgen.features import GLOBAL_FEATURE_NAMES, write_features_csv


def json_values(integers):
    """Drawn JSON values, their integer leaves from integers. Non-finite floats and
    meter-like strings are drawn as often as the other leaves."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats()
        | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=6)
        | st.from_regex(r"[0-9]{1,2}/[0-9]{1,2}", fullmatch=True),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=6)


# A --config file's songs and bars have no upper bound, so its integers stay small: a
# drawn count of 10**9 would fill the memory. Every number of a song file is bounded
# (a bar by encoding.BAR_STEP_LIMIT sixteenths, an event by EVENT_LIMIT), so its
# integers also reach far past those bounds and just past 2**31.
JSON_VALUES = json_values(st.integers(-3, 20))
SONG_VALUES = json_values(st.integers(-3, 20)
                          | st.sampled_from([10 ** 9, -10 ** 9, 2 ** 31, 2 ** 31 + 1]))
INVALID_UTF8 = (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80")


def _paths(doc, path=()):
    """The path of every key or element inside doc, a tree of dicts and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, doc, dump, values=JSON_VALUES):
    """The bytes of dump(doc) after one drawn mutation of doc or of its bytes,
    a replaced value drawn from values."""
    kind = draw(st.sampled_from(["delete", "replace", "truncate", "invalid utf-8"]))
    if kind in ("delete", "replace"):
        doc = copy.deepcopy(doc)
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(values)
        return dump(doc).encode()
    data = dump(doc).encode()
    cut = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:cut]
    return data[:cut] + draw(st.sampled_from(INVALID_UTF8)) + data[cut:]


def csv_text(rows):
    """rows as CSV: a row that is not a list is one cell; a cell that is
    not a string is its JSON text."""
    buf = io.StringIO()
    csv.writer(buf).writerows(
        [c if isinstance(c, str) else json.dumps(c) for c in (r if isinstance(r, list) else [r])]
        for r in rows)
    return buf.getvalue()


def check_command(argv, path, out):
    """Run the CLI on argv and apply the oracle for the input file path and the output out."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), code
    if code:
        assert path in stderr.getvalue(), stderr.getvalue()
        assert not os.path.exists(out), stderr.getvalue()


TINY_TRAIN = ["--epochs", "1", "--snapshots", "", "--hidden", "2", "--seq-len", "8",
              "--batch-size", "2"]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A 2-song corpus with its manifest, a checkpoint trained on it, and a features CSV."""
    root = tmp_path_factory.mktemp("valid")
    corpus, run = str(root / "corpus"), str(root / "run")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", corpus, "--songs", "2", "--bars", "2",
                     "--meters", "4/4,7/8", "--seed", "3"]) == 0
        assert main(["train", corpus, *TINY_TRAIN, "--out", run]) == 0
    features = root / "f.csv"
    write_features_csv(features, [(f"p{i}", "g", np.random.default_rng(i).normal(
        size=len(GLOBAL_FEATURE_NAMES))) for i in range(6)])
    with open(os.path.join(corpus, "synthrock-000.json")) as fh:
        song = json.load(fh)
    with open(os.path.join(corpus, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(features, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"corpus": corpus, "checkpoint": os.path.join(run, "checkpoint_epoch_0001.json"),
            "song": song, "manifest": manifest, "features": rows}


def song_argv(command, song, checkpoint, out):
    return {"features": ["features", song],
            "train": ["train", song, *TINY_TRAIN],
            "generate": ["generate", "--checkpoint", checkpoint, "--conditions", song,
                         "--seed-steps", "1"]}[command] + ["--out", out]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["features", "train", "generate"]))
def test_fuzzed_song_file(valid, data, command):
    text = data.draw(mutated(valid["song"], lambda doc: json.dumps(doc, indent=1), SONG_VALUES))
    with tempfile.TemporaryDirectory() as d:
        song, out = os.path.join(d, "song.json"), os.path.join(d, "out")
        with open(song, "wb") as fh:
            fh.write(text)
        check_command(song_argv(command, song, valid["checkpoint"], out), song, out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_corpus_manifest(valid, data):
    text = data.draw(mutated(valid["manifest"], json.dumps))
    with tempfile.TemporaryDirectory() as d:
        corpus, out = os.path.join(d, "corpus"), os.path.join(d, "run")
        shutil.copytree(valid["corpus"], corpus)
        manifest = os.path.join(corpus, "manifest.json")
        with open(manifest, "wb") as fh:
            fh.write(text)
        check_command(["train", corpus, *TINY_TRAIN, "--out", out], manifest, out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_features_csv(valid, data):
    text = data.draw(mutated(valid["features"], csv_text))
    with tempfile.TemporaryDirectory() as d:
        features, out = os.path.join(d, "f.csv"), os.path.join(d, "map.csv")
        with open(features, "wb") as fh:
            fh.write(text)
        check_command(["embed", features, "--perplexity", "2", "--iterations", "10",
                       "--out", out], features, out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_config_file(data):
    base = {"style": "synthrock", "songs": 2, "bars": 2, "meters": "4/4,7/8", "tempo_min": 90.0,
            "tempo_max": 120.0, "phrase_len": 2, "seed": 1}
    text = data.draw(mutated(base, json.dumps))
    with tempfile.TemporaryDirectory() as d:
        config, out = os.path.join(d, "config.json"), os.path.join(d, "corpus")
        with open(config, "wb") as fh:
            fh.write(text)
        check_command(["synth", "--config", config, "--out", out], config, out)
