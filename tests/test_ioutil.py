import os
import stat

import numpy as np
import pytest

from drumgen.ioutil import atomic_write_bytes, atomic_write_text


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    """Both writers: text, and bytes from any buffer such as an array."""
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "text.txt", "xé")
        atomic_write_bytes(tmp_path / "bytes.txt",
                           [b"x", np.array([0xc3, 0xa9], dtype=np.uint8)])
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
    assert mode("text.txt") == mode("bytes.txt") == mode("plain.txt") == 0o666 & ~umask
    assert (tmp_path / "text.txt").read_bytes() == "xé".encode("utf-8")
    assert (tmp_path / "bytes.txt").read_bytes() == "xé".encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["bytes.txt", "plain.txt", "text.txt"]


def test_failed_write_leaves_no_file(tmp_path):
    def chunks():
        yield b"partial"
        raise RuntimeError("disk full")

    (tmp_path / "out.bin").write_bytes(b"old")
    with pytest.raises(RuntimeError, match="disk full"):
        atomic_write_bytes(tmp_path / "out.bin", chunks())
    assert os.listdir(tmp_path) == ["out.bin"]
    assert (tmp_path / "out.bin").read_bytes() == b"old"
