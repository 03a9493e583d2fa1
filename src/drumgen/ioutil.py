"""File helpers: all outputs are written atomically (temp file + rename)
so failures never leave partial files behind."""

import os
import tempfile


def _default_file_mode():
    """The mode open(path, "w") gives a new file: 0o666 less the process
    umask, which can only be read by setting it."""
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_bytes(path, chunks):
    """Write the bytes-like objects in chunks, in order, as the new
    content of path. Each chunk is written from its own memory, so a
    C-contiguous numpy array can be passed without a copy."""
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), _default_file_mode())  # mkstemp made it 0o600
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, [text.encode("utf-8")])
