"""Atomic whole-file text writes.

Every exporter that rewrites a file in one go (the sweep cache, the
build-artifact store, the JSONL/Chrome trace exports, the Prometheus
text file) goes through :func:`atomic_write_text`: the text lands in a
temporary file next to the target and ``os.replace`` moves it into
place, so an interrupted write leaves either the old file or the new
one -- never a truncated half-file.  There is no ``fsync``: the promise
is atomic replacement, not durability across a power cut.
"""

import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8, ``\\n`` newlines).

    The temporary file sits in ``path``'s own directory (so the rename
    never crosses a filesystem) as ``<name>.<random>.tmp``, and it is
    unlinked on any exception before the exception propagates.  An
    ``OSError`` about the temporary file (a missing directory, a target
    that is a directory) is re-raised naming ``path``: the temporary
    name is an implementation detail the caller never gave.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", dir=directory, prefix=os.path.basename(path) + ".",
            suffix=".tmp", delete=False, encoding="utf-8", newline="\n",
        )
    except OSError as error:
        raise type(error)(error.errno, error.strerror, path) from None
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException as error:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        if isinstance(error, OSError) and error.filename == handle.name:
            raise type(error)(error.errno, error.strerror, path) from None
        raise
