"""Checked reads of the program's input files.

Binary containers (datasets and checkpoints): `CheckedReader` measures
every read against the bytes left in the file before it is made, so a
corrupt size field fails as the caller's typed error instead of asking
for more memory than the file could hold. The layouts themselves are
documented by `datagen.save_dataset` and `diffusion.save_checkpoint`.

JSON documents (the skeleton file and the imu-stream and pose-stream
wire formats, whose layouts `kinematics` and `inference` document):
every object is parsed and every value read through this module, which
states once what a JSON value is.

- An object names each key once: every reader parses with `parse_json`,
  whose `object_pairs_hook` is `unique_keys`, so `{"root": [0, 0, 0],
  "root": [5, 5, 5]}` is refused instead of read as its last value.
- A string or an integer is one by its exact type (`exactly`), so a
  boolean is not an integer and 1.5 is not truncated to one.
- A number is an `int` or a `float` by exact type, never a boolean, a
  string or null (`number`), and an array of numbers is nested lists of
  exactly the given shape holding only numbers (`numbers`).
- A header names its format and a `version` that is an integer equal to
  the format's version (`check_header`), so `"version": true` is not
  version 1.

These raise TypeError or ValueError (OverflowError for an integer too
large for a float) naming the value, abbreviated by `reprlib`; each
reader turns them into its format's typed error.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
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


# -- JSON values ---------------------------------------------------------------

_NUMBER = frozenset((int, float))  # exact types: bool, a subclass of int, is not a number


def exactly(kind: type, value, what: str):
    """value when its type is exactly `kind`, else TypeError naming `what`."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be of type {kind.__name__}, got {reprlib.repr(value)}")
    return value


def number(value, what: str) -> float:
    """A JSON number as a float."""
    if type(value) not in _NUMBER:
        raise TypeError(f"{what} must be a number, got {reprlib.repr(value)}")
    return float(value)


def numbers(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A JSON array of numbers, nested lists of exactly `shape` (at least
    one axis), as a float64 array. The check is one pass in plain Python,
    which costs about what numpy's conversion does."""
    if not _holds_numbers(value, shape):
        raise _refusal(value, shape, what)
    return np.array(value, dtype=np.float64).reshape(shape)  # reshape: an empty axis keeps the others


def _holds_numbers(value, shape: tuple[int, ...]) -> bool:
    if type(value) is not list or len(value) != shape[0]:
        return False
    if len(shape) == 1:
        return _NUMBER.issuperset(map(type, value))
    inner = shape[1:]
    return all(_holds_numbers(v, inner) for v in value)


def _refusal(value, shape: tuple[int, ...], what: str) -> Exception:
    """Why `_holds_numbers` refused `value`: its shape, taken as numpy
    would (the levels at which every item is a list of one length), when
    that is not `shape`, else the first item that is not a number."""
    got, level = [], [value]
    while all(type(v) is list for v in level) and len({len(v) for v in level}) == 1:
        got.append(len(level[0]))
        level = [x for v in level for x in v]
    if tuple(got) != shape:
        return ValueError(f"{what} has shape {tuple(got)}, expected {shape}")
    bad = next(v for v in level if type(v) not in _NUMBER)
    return TypeError(f"{what} must hold numbers only, got {reprlib.repr(bad)}")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`json`'s object_pairs_hook: the object as a dict, or ValueError
    naming the first key that it repeats."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {reprlib.repr(key)}")
            seen.add(key)
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=unique_keys)  # built once: json.loads with a hook builds one a call


def parse_json(doc: str | bytes):
    """`json.loads(doc)` (bytes decoded as it decodes them) with
    `unique_keys` as the object_pairs_hook; ValueError on bad JSON, bad
    text or a repeated key, RecursionError past the nesting limit."""
    if isinstance(doc, bytes):
        doc = doc.decode(json.detect_encoding(doc), "surrogatepass")
    return _DECODER.decode(doc)


def check_header(doc: dict, fmt: str, version: int) -> None:
    """ValueError unless `doc` names the format `fmt` at `version`."""
    if doc.get("format") != fmt:
        raise ValueError(f"expected format {fmt!r}, got {reprlib.repr(doc.get('format'))}")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise ValueError(f"unsupported {fmt} version {reprlib.repr(doc.get('version'))}, expected {version}")
