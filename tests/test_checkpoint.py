"""Checkpoint files: bit-exact round trips, and every kind of damaged or
foreign file rejected with a CheckpointError that names the path."""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen import model as dm
from drumgen.model import (Checkpoint, CheckpointError, ModelConfig,
                           load_checkpoint, save_checkpoint)

# -0.0, the smallest and largest subnormals, a quiet NaN with a payload,
# a signalling NaN, and -inf
SPECIAL_BITS = [0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                0x7FF8000000000123, 0x7FF0000000000001, 0xFFF0000000000000]


def random_checkpoint(config, seed, specials=(), epoch=3, adam_t=7, losses=(6.2, 5.9)):
    """A checkpoint of config's layout whose tensors and moments hold
    random float64 bit patterns, with the given bit patterns spliced in
    at random places."""
    rng = np.random.default_rng(seed)

    def bits(shape):
        n = int(np.prod(shape))
        a = np.frombuffer(rng.bytes(8 * n), dtype=np.uint64).copy()
        for b in specials:
            a[rng.integers(n)] = b
        return a.view(np.float64).reshape(shape)

    shapes = dm.param_shapes(config)
    return Checkpoint(
        config=config, epoch=epoch,
        tensors={k: bits(s) for k, s in shapes.items()},
        moments={k: (bits(s), bits(s)) for k, s in shapes.items()},
        adam_t=adam_t,
        rng_state=np.random.default_rng(seed).bit_generator.state,
        loss_history=list(losses))


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(hidden=st.integers(1, 6), layers=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       specials=st.lists(st.sampled_from(SPECIAL_BITS), max_size=6),
       epoch=st.integers(0, 10 ** 6), adam_t=st.integers(0, 10 ** 6),
       losses=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5))
def test_roundtrip_is_bit_exact_for_any_bit_pattern(hidden, layers, seed, specials,
                                                    epoch, adam_t, losses):
    config = ModelConfig(hidden=hidden, lstm_layers=layers)
    ckpt = random_checkpoint(config, seed, specials, epoch, adam_t, losses)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ckpt.json")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
    assert loaded.config == config
    assert (loaded.epoch, loaded.adam_t) == (epoch, adam_t)
    assert loaded.rng_state == ckpt.rng_state
    assert loaded.loss_history == ckpt.loss_history
    assert loaded.tensors.keys() == ckpt.tensors.keys()
    for name, a in ckpt.tensors.items():
        assert_bits_equal(loaded.tensors[name], a)
    assert loaded.moments.keys() == ckpt.moments.keys()
    for name, (m, v) in ckpt.moments.items():
        assert_bits_equal(loaded.moments[name][0], m)
        assert_bits_equal(loaded.moments[name][1], v)


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(random_checkpoint(ModelConfig(hidden=3), seed=1), path)
    return path


def load_doc(path):
    return json.loads(path.read_text())


def write_resigned(path, doc):
    """Write doc back with a checksum that matches its edited contents."""
    doc.pop("checksum", None)
    doc["checksum"] = dm._payload_checksum(doc)
    path.write_text(json.dumps(doc, sort_keys=True))


def test_flipped_character_in_moments_blob_rejected(saved):
    text = saved.read_text()
    i = text.index('"data": "', text.index('"moments"')) + len('"data": "') + 20
    saved.write_text(text[:i] + ("A" if text[i] != "A" else "B") + text[i + 1:])
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(saved)


def test_edited_shape_rejected(saved):
    doc = load_doc(saved)
    assert doc["tensors"]["K.lstm1.bias"]["shape"] == [12]
    doc["tensors"]["K.lstm1.bias"]["shape"] = [3, 4]  # same size: decodes fine
    saved.write_text(json.dumps(doc, sort_keys=True))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(saved)


def test_version_1_document_rejected(saved):
    doc = load_doc(saved)
    del doc["checksum"]
    doc["version"] = 1
    # version 1's checksum: sha256 of the whole canonically dumped document
    doc["checksum"] = hashlib.sha256(json.dumps(
        doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    saved.write_text(json.dumps(doc, sort_keys=True))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(saved)


def test_non_utf8_file_rejected(saved):
    raw = saved.read_bytes()
    saved.write_bytes(raw.replace(b'"PCG64"', b'"PCG\xe964"', 1))
    with pytest.raises(CheckpointError, match="ckpt.json"):
        load_checkpoint(saved)


@pytest.mark.parametrize("text", ["[]", "3", '"checkpoint"', "null"])
def test_json_that_is_not_an_object_rejected(tmp_path, text):
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    with pytest.raises(CheckpointError, match="ckpt.json"):
        load_checkpoint(path)


def _drop_loss_history(doc):
    del doc["loss_history"]


def _add_top_level_key(doc):
    doc["comment"] = "hello"


def _add_config_key(doc):
    doc["config"]["warp_factor"] = 9


def _drop_config_key(doc):
    del doc["config"]["hidden"]


def _truncate_blob(doc):
    doc["tensors"]["K.head.b"]["data"] = doc["tensors"]["K.head.b"]["data"][:-4]


@pytest.mark.parametrize("edit", [_drop_loss_history, _add_top_level_key, _add_config_key,
                                  _drop_config_key, _truncate_blob])
def test_malformed_document_with_valid_checksum_rejected(saved, edit):
    doc = load_doc(saved)
    edit(doc)
    write_resigned(saved, doc)
    with pytest.raises(CheckpointError, match="ckpt.json"):
        load_checkpoint(saved)


def test_array_entry_without_base64_text_rejected(saved):
    doc = load_doc(saved)
    doc["moments"]["K.head.b"][1]["data"] = 0
    saved.write_text(json.dumps(doc, sort_keys=True))
    with pytest.raises(CheckpointError, match="malformed checkpoint .*ckpt.json"):
        load_checkpoint(saved)
