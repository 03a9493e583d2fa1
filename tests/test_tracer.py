"""The benchmark's span tracer (perfbench/spans.py) patches drumgen's
functions by name. Installing it fails if a traced name is gone, and
uninstalling it must put every original back."""

import os
import sys

import drumgen.layers as dm_layers

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import spans  # noqa: E402

MODULES = [m for m in vars(spans).values()
           if getattr(m, "__name__", "").startswith("drumgen.")]


def snapshot():
    names = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    names["LinearLayer.forward"] = dm_layers.LinearLayer.forward
    return names


def test_tracer_install_patches_and_uninstall_restores():
    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = snapshot()
    finally:
        tracer.uninstall()
    patched = {key for key, value in before.items() if during[key] is not value}
    for key in [("drumgen.model", "lstm_step"), ("drumgen.model", "train"),
                ("drumgen.layers", "lstm_step"), ("drumgen.sampling", "forward_step"),
                ("drumgen.sampling", "params_from_checkpoint"),
                ("drumgen.sampling", "window_pre"), ("drumgen.sampling", "window_post"),
                "LinearLayer.forward"]:
        assert key in patched
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
