"""One checked container for the binary artifacts: checkpoints and the index.

A file is a magic line, the byte length of a JSON header as a little-endian
u64, the header (UTF-8 JSON, keys sorted), then a body of little-endian
float64 values. Every failure to read one raises the caller's error class
naming the file.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np


def write(path, magic: bytes, header: dict, body: np.ndarray) -> None:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(text)))
        f.write(text)
        np.ascontiguousarray(body, dtype="<f8").tofile(f)


def read(path, magic: bytes, name: str, error: type, count) -> tuple[dict, np.ndarray]:
    """The header and the body of the ``name`` file at ``path``. ``count(header)``
    returns the number of values the header promises, or raises ``error``."""
    with open(path, "rb") as f:
        if f.read(len(magic)) != magic:
            raise error(f"{path}: not a candgen {name} of this version; rebuild it "
                        "(train writes checkpoints, embed the index)")
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        hlen = struct.unpack("<Q", head)[0] if len(head) == 8 else size
        try:  # a cut header fails to parse; so does one that is not UTF-8 JSON
            header = json.loads(f.read(hlen).decode("utf-8")) if hlen <= size else None
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            header = None
        if not isinstance(header, dict):
            raise error(f"{path}: truncated or malformed {name} header")
        try:
            n = count(header)
        except error as e:
            raise error(f"{path}: {e}") from None
        body = size - f.tell()
        if body != 8 * n:
            raise error(
                f"{path}: header promises {n} float64 values ({8 * n} bytes) "
                f"but the body holds {body} bytes"
            )
        values = np.fromfile(f, dtype="<f8", count=n).astype(np.float64, copy=False)
    return header, values
