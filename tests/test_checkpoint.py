"""Checkpoint files: bit-exact round trips, and every kind of damaged or
foreign file rejected with a CheckpointError that names the path."""

import base64
import dataclasses
import hashlib
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumgen import model as dm
from drumgen.model import (Checkpoint, CheckpointError, ModelConfig,
                           load_checkpoint, load_weights, save_checkpoint)

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
        weights = load_weights(path)
    assert loaded.config == weights.config == config
    assert (loaded.epoch, loaded.adam_t) == (epoch, adam_t)
    assert loaded.rng_state == ckpt.rng_state
    assert loaded.loss_history == ckpt.loss_history
    assert loaded.tensors.keys() == weights.tensors.keys() == ckpt.tensors.keys()
    for name, a in ckpt.tensors.items():
        assert_bits_equal(loaded.tensors[name], a)
        assert_bits_equal(weights.tensors[name], a)
    assert loaded.moments.keys() == ckpt.moments.keys()
    for name, (m, v) in ckpt.moments.items():
        assert_bits_equal(loaded.moments[name][0], m)
        assert_bits_equal(loaded.moments[name][1], v)


# ---------------------------------------------------------------------------
# Damaged and foreign files. A file is split into its parts, edited and
# written back; "re-signed" means with digests that match the edit.

PREFIX = struct.Struct("<8sQ")


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(random_checkpoint(ModelConfig(hidden=3), seed=1), path)
    return path


def test_loaded_arrays_are_aligned_and_writable(saved):
    ckpt = load_checkpoint(saved)
    arrays = [*ckpt.tensors.values(), *(a for mv in ckpt.moments.values() for a in mv)]
    assert all(a.flags.aligned and a.flags.writeable for a in arrays)


def test_weights_hold_config_and_tensors_only(saved):
    weights = load_weights(saved)
    assert [f.name for f in dataclasses.fields(weights)] == ["config", "tensors"]


def read_parts(path):
    """(header dict, header bytes, tensors bytes, moments bytes)."""
    raw = path.read_bytes()
    n = PREFIX.unpack(raw[:PREFIX.size])[1]
    text = raw[PREFIX.size:PREFIX.size + n]
    header = json.loads(text)
    body = raw[PREFIX.size + n:]
    length = header["sections"]["tensors"]["length"]
    return header, text, body[:length], body[length:]


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def write_parts(path, text, tensors=b"", moments=b"", length=None):
    path.write_bytes(PREFIX.pack(dm._MAGIC, len(text) if length is None else length)
                     + text + tensors + moments)


def write_resigned(path, header, tensors, moments):
    """Write the parts back with section and header digests that match
    their edited contents."""
    header["sections"] = {name: {"length": len(data),
                                 "sha256": hashlib.sha256(data).hexdigest()}
                          for name, data in (("tensors", tensors), ("moments", moments))}
    header.pop("header_sha256", None)
    header["header_sha256"] = hashlib.sha256(canonical(header)).hexdigest()
    write_parts(path, canonical(header), tensors, moments)


def section_start(path, name):
    header, text, tensors, _ = read_parts(path)
    start = PREFIX.size + len(text)
    return {"header": PREFIX.size, "tensors": start, "moments": start + len(tensors)}[name]


def flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x10
    path.write_bytes(bytes(raw))


def test_flipped_character_in_moments_blob_rejected(saved):
    weights = load_weights(saved)
    flip_byte(saved, section_start(saved, "moments") + 20)
    with pytest.raises(CheckpointError, match="checksum mismatch in the moments section"):
        load_checkpoint(saved)
    # the weights-only load neither reads nor verifies the moments
    again = load_weights(saved)
    for name, a in weights.tensors.items():
        assert_bits_equal(again.tensors[name], a)


@pytest.mark.parametrize("section, match", [
    ("header", "checksum mismatch in the header of .*ckpt.json"),
    ("tensors", "checksum mismatch in the tensors section of .*ckpt.json")])
def test_flipped_byte_in_header_or_tensors_rejected(saved, section, match):
    # 30 bytes into the header is inside the config, past '{"adam_t":'
    flip_byte(saved, section_start(saved, section) + 30)
    for load in (load_checkpoint, load_weights):
        with pytest.raises(CheckpointError, match=match):
            load(saved)


@pytest.mark.parametrize("section", ["header", "tensors", "moments"])
def test_truncation_inside_each_section_rejected(saved, section):
    raw = saved.read_bytes()
    saved.write_bytes(raw[:section_start(saved, section) + 5])
    with pytest.raises(CheckpointError, match="truncated.*ckpt.json"):
        load_checkpoint(saved)


def test_bytes_after_the_moments_rejected(saved):
    saved.write_bytes(saved.read_bytes() + b"\0" * 8)
    for load in (load_checkpoint, load_weights):
        with pytest.raises(CheckpointError, match="extended checkpoint .*ckpt.json"):
            load(saved)


def test_header_that_is_not_canonical_rejected(saved):
    """The same values and digests with spaces after the separators: the
    header digest covers only the canonical text, so any other is refused."""
    header, _, tensors, moments = read_parts(saved)
    write_parts(saved, json.dumps(header, sort_keys=True).encode(), tensors, moments)
    with pytest.raises(CheckpointError, match="checksum mismatch in the header"):
        load_checkpoint(saved)


def test_edited_shape_rejected(saved):
    header, _, tensors, moments = read_parts(saved)
    entry = next(e for e in header["layout"] if e["name"] == "K.lstm1.bias")
    assert entry["shape"] == [12]
    entry["shape"] = [3, 4]  # same size, so every offset still fits
    write_parts(saved, canonical(header), tensors, moments)
    with pytest.raises(CheckpointError, match="checksum mismatch in the header"):
        load_checkpoint(saved)
    write_resigned(saved, header, tensors, moments)
    with pytest.raises(CheckpointError, match="layout does not match"):
        load_checkpoint(saved)


def test_version_1_document_rejected(saved):
    """The JSON checkpoints of versions 1 and 2 are rejected by their
    first byte, with the message to retrain."""
    for version in (1, 2):
        doc = {"version": version, "epoch": 1, "tensors": {}, "moments": {}}
        doc["checksum"] = hashlib.sha256(canonical(doc)).hexdigest()
        saved.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(CheckpointError, match="ckpt.json is a JSON checkpoint.*retrain"):
            load_checkpoint(saved)


def test_version_3_json_checkpoint_rejected_with_retrain_message(tmp_path):
    """A version-3 file as its writer laid it out: one JSON document of
    base64 float64 arrays. Only the first byte is read, so a document cut
    short gets the same message."""
    ckpt = random_checkpoint(ModelConfig(hidden=2, lstm_layers=1), seed=3)

    def encode(a):
        return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode()}

    doc = {"version": 3, "config": dataclasses.asdict(ckpt.config), "epoch": ckpt.epoch,
           "adam_t": ckpt.adam_t, "rng_state": ckpt.rng_state,
           "tensors": {k: encode(a) for k, a in ckpt.tensors.items()},
           "moments": {k: [encode(m), encode(v)] for k, (m, v) in ckpt.moments.items()},
           "loss_history": ckpt.loss_history, "checksum": "0" * 64}
    text = json.dumps(doc, sort_keys=True)
    for name, content in (("v3.json", text), ("cut.json", text[:100])):
        path = tmp_path / name
        path.write_text(content)
        for load in (load_checkpoint, load_weights):
            with pytest.raises(CheckpointError,
                               match=f"{name} is a JSON checkpoint of version 3 or older.*"
                                     f"retrain to write a version-4 checkpoint"):
                load(path)


def test_non_utf8_file_rejected(saved):
    raw = saved.read_bytes()
    saved.write_bytes(raw.replace(b'"PCG64"', b'"PCG\xe964"', 1))
    with pytest.raises(CheckpointError, match="ckpt.json"):
        load_checkpoint(saved)


@pytest.mark.parametrize("text", ["[]", "3", '"checkpoint"', "null"])
def test_json_that_is_not_an_object_rejected(tmp_path, text):
    """A header that is JSON but not an object, behind a valid prefix."""
    path = tmp_path / "ckpt.json"
    write_parts(path, text.encode())
    with pytest.raises(CheckpointError, match="ckpt.json: header is not a JSON object"):
        load_checkpoint(path)


@pytest.mark.parametrize("content", [b"", b"\x93DRUM", b"PK\x03\x04" + bytes(40)],
                         ids=["empty", "short-prefix", "zip"])
def test_file_without_the_prefix_rejected(tmp_path, content):
    path = tmp_path / "ckpt.json"
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match="ckpt.json is not a drumgen checkpoint"):
        load_checkpoint(path)


def test_wrong_version_or_length_rejected(saved):
    header, text, tensors, moments = read_parts(saved)
    write_parts(saved, text, tensors, moments, length=len(text) + 3 * len(tensors) + 1)
    with pytest.raises(CheckpointError, match="truncated checkpoint .*header of"):
        load_checkpoint(saved)
    write_parts(saved, text, tensors, moments, length=len(text) - 1)
    with pytest.raises(CheckpointError, match="header is not UTF-8 JSON"):
        load_checkpoint(saved)
    write_resigned(saved, dict(header, version=5), tensors, moments)
    with pytest.raises(CheckpointError, match="ckpt.json has version 5, unsupported"):
        load_checkpoint(saved)


def _drop_loss_history(parts):
    del parts[0]["loss_history"]


def _add_top_level_key(parts):
    parts[0]["comment"] = "hello"


def _add_config_key(parts):
    parts[0]["config"]["warp_factor"] = 9


def _drop_config_key(parts):
    del parts[0]["config"]["hidden"]


def _truncate_blob(parts):
    parts[1] = parts[1][:-8]


def _edit_layout_offset(parts):
    parts[0]["layout"][1]["offset"] += 8


@pytest.mark.parametrize("edit", [_drop_loss_history, _add_top_level_key, _add_config_key,
                                  _drop_config_key, _truncate_blob, _edit_layout_offset])
def test_malformed_document_with_valid_checksum_rejected(saved, edit):
    header, _, tensors, moments = read_parts(saved)
    parts = [header, tensors, moments]
    edit(parts)
    write_resigned(saved, *parts)
    with pytest.raises(CheckpointError, match="malformed checkpoint .*ckpt.json"):
        load_checkpoint(saved)


def test_layout_entry_of_wrong_type_rejected(saved):
    header, _, tensors, moments = read_parts(saved)
    header["layout"][0]["shape"] = "8x6"
    write_resigned(saved, header, tensors, moments)
    with pytest.raises(CheckpointError, match="malformed checkpoint .*ckpt.json: layout"):
        load_checkpoint(saved)


RNG = np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("field, value", [
    ("epoch", "x"), ("epoch", -1), ("adam_t", 2.5), ("adam_t", True),
    ("loss_history", "ab"), ("loss_history", [1.0, "x"]), ("loss_history", [1e308, True]),
    ("rng_state", dict(RNG, bit_generator="MT19937")),
    ("rng_state", dict(RNG, state={"state": 1.5, "inc": 3})),
    ("rng_state", dict(RNG, uinteger=2 ** 32)),
    ("config", dict(dataclasses.asdict(ModelConfig()), hidden="8")),
    ("config", dict(dataclasses.asdict(ModelConfig()), dropout=True)),
], ids=["epoch-str", "epoch-negative", "adam_t-float", "adam_t-bool", "loss_history-str",
        "loss_history-str-item", "loss_history-bool-item", "rng_state-mt19937",
        "rng_state-float", "rng_state-uinteger", "config-hidden-str", "config-dropout-bool"])
def test_header_value_of_wrong_type_rejected(saved, field, value):
    header, _, tensors, moments = read_parts(saved)
    header[field] = value
    write_resigned(saved, header, tensors, moments)
    for load in (load_checkpoint, load_weights):
        with pytest.raises(CheckpointError, match=f"malformed checkpoint .*ckpt.json: {field}"):
            load(saved)


def test_save_rejects_values_it_could_not_load_back(tmp_path):
    ckpt = random_checkpoint(ModelConfig(hidden=2), seed=4, losses=[float("nan")])
    with pytest.raises(CheckpointError, match="loss_history"):
        save_checkpoint(ckpt, tmp_path / "ckpt.json")
    ckpt = random_checkpoint(ModelConfig(hidden=2), seed=4, epoch="3")
    with pytest.raises(CheckpointError, match="epoch"):
        save_checkpoint(ckpt, tmp_path / "ckpt.json")
    assert os.listdir(tmp_path) == []
