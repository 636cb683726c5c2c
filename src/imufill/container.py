"""Checked reads from the binary containers (datasets and checkpoints).

Every read is measured against the bytes left in the file before it is
made, so a corrupt size field fails as the caller's typed error instead
of asking for more memory than the file could hold. The layouts
themselves are documented by `datagen.save_dataset` and
`diffusion.save_checkpoint`.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np


class CheckedReader:
    """Reads from an open binary file; every failure raises `error`."""

    def __init__(self, f, error: type[Exception], kind: str):
        self.f, self.error, self.kind = f, error, kind
        self.size = os.fstat(f.fileno()).st_size

    def read(self, n: int, what: str) -> bytes:
        left = self.size - self.f.tell()
        data = self.f.read(n) if n <= left else b""
        if len(data) != n:
            raise self.error(f"truncated {self.kind}: {what} needs {n} bytes, {left} left")
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return self.read(n, what).decode()
        except UnicodeDecodeError:
            raise self.error(f"corrupt {self.kind}: {what} is not UTF-8 text") from None

    def array(self, shape: tuple[int, ...], dtype, what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        data = self.read(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()
