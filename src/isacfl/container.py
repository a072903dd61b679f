"""The one binary container behind every file isacfl writes.

Layout: a little-endian u64 header length, a JSON header (sorted keys, UTF-8)
whose ``format`` and ``version`` name the file kind, then length-prefixed
little-endian float arrays (a u64 element count, then the elements).
Parameter and optimizer files store float64 (``"<f8"``), datasets float32
(``"<f4"``). Reading checks every length against the bytes left in the file,
so a malformed file raises :class:`DatasetFormatError` and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from typing import Iterable

import numpy as np

MAX_HEADER_BYTES = 1 << 20


class DatasetFormatError(ValueError):
    """The file is not a recognizable isacfl file."""


class DatasetVersionError(DatasetFormatError):
    """The file was written by an incompatible format version."""


def write_container(path, header: dict, arrays: Iterable[np.ndarray], dtype: str) -> None:
    """Write ``header`` and then each array, flattened and cast to ``dtype``."""
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        for arr in arrays:
            flat = np.ascontiguousarray(arr, dtype=dtype).ravel()
            fh.write(struct.pack("<Q", flat.size))
            fh.write(flat.tobytes())


class ContainerReader:
    """Reads one open container: the checked header, then arrays in order."""

    def __init__(self, fh, path, magic: str, version: int, dtype: str):
        self._fh = fh
        self.path = path
        self._dtype = np.dtype(dtype)
        self._left = os.fstat(fh.fileno()).st_size
        hlen = self._u64("file too short to hold a header")
        if hlen > MAX_HEADER_BYTES:
            raise DatasetFormatError(f"{path}: implausible header length {hlen}")
        try:
            header = json.loads(self._take(hlen, "truncated header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DatasetFormatError(f"{path}: corrupted header") from exc
        if not isinstance(header, dict) or header.get("format") != magic:
            raise DatasetFormatError(f"{path}: not a {magic} file")
        if header.get("version") != version:
            raise DatasetVersionError(f"{path}: format version {header.get('version')} not supported (expected {version})")
        self.header = header

    def _take(self, n: int, what: str) -> bytes:
        if n > self._left:
            raise DatasetFormatError(f"{self.path}: {what}")
        self._left -= n
        return self._fh.read(n)

    def _u64(self, what: str) -> int:
        return struct.unpack("<Q", self._take(8, what))[0]

    def array(self, count: int | None = None) -> np.ndarray:
        """The next flat array; with ``count`` set, its length must equal it."""
        n = self._u64("truncated file (missing array length)")
        if count is not None and n != count:
            raise DatasetFormatError(f"{self.path}: array of {n} values, expected {count}")
        body = self._take(n * self._dtype.itemsize, "truncated file (short array body)")
        return np.frombuffer(body, dtype=self._dtype)


@contextlib.contextmanager
def decoding(path):
    """Report a missing, ill-typed or inconsistent header field of ``path`` as a format error."""
    try:
        yield
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DatasetFormatError(f"{path}: bad header field: {exc!r}") from exc
