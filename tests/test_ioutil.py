import os
import stat

import pytest

from drumgen.ioutil import atomic_write_text


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
    assert mode("atomic.txt") == mode("plain.txt") == 0o666 & ~umask
    assert (tmp_path / "atomic.txt").read_text() == "x"
    assert sorted(os.listdir(tmp_path)) == ["atomic.txt", "plain.txt"]
