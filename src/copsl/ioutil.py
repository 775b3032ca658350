"""Atomic file writing helpers.

Artifacts are always written to a temporary sibling and renamed into place,
so a crash mid-write never leaves a partial file behind.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

from .errors import ConfigurationError


@contextlib.contextmanager
def writing(path: str):
    """Raise an ``OSError`` from writing ``path`` as a :class:`ConfigurationError` naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, as the file at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    with writing(path):
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
