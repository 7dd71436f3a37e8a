"""One checked container for the binary artifacts, checkpoints and the
index, and one checked line reader for the text files.

A binary file is a magic line, the byte length of a JSON header as a
little-endian u64, the header (UTF-8 JSON, keys sorted), then a body of
little-endian float64 values. Every failure to read one raises the caller's
error class naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import struct
import threading

import numpy as np

READ_BLOCK = 1 << 22  # bytes of a body read at a time (4 MiB)


def text_lines(path, error: type):
    """Yield ``(file:line, text)`` for each non-empty line of a UTF-8 text file,
    without its line break. A line holding bytes that are not UTF-8 raises
    ``error`` naming ``file:line`` and the first such byte."""
    # surrogateescape turns each undecodable byte into a lone surrogate, which
    # a decoded line holds for no other reason and which UTF-8 cannot encode
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as e:
                byte = ord(line[e.start]) - 0xDC00
                raise error(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None
            if line:
                yield f"{path}:{lineno}", line


def write(path, magic: bytes, header: dict, body: np.ndarray) -> None:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(text)))
        f.write(text)
        np.ascontiguousarray(body, dtype="<f8").tofile(f)


def read(path, magic: bytes, name: str, error: type, count,
         digests: dict | None = None) -> tuple[dict, np.ndarray]:
    """The header and the body of the ``name`` file at ``path``. ``count(header)``
    returns the number of values the header promises, or raises ``error``.
    ``digests``, if given, gets ``digests[path]``: a call that joins the thread
    hashing the bytes read (the whole file) and returns their hex SHA-256.
    The thread hashes each ``READ_BLOCK`` of the body as soon as it is read.
    Whoever passed the dict must make that call, also when this one raises."""
    with open(path, "rb") as f:
        if f.read(len(magic)) != magic:
            raise error(f"{path}: not a candgen {name} of this version; rebuild it "
                        "(train writes checkpoints, embed the index)")
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        hlen = struct.unpack("<Q", head)[0] if len(head) == 8 else size
        text = f.read(hlen) if hlen <= size else b""
        try:  # a cut header fails to parse; so does one that is not UTF-8 JSON
            header = json.loads(text.decode("utf-8"))
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
        raw = np.empty(n, dtype="<f8")
        buf, done, blocks = raw.view(np.uint8), 0, None
        if digests is not None:  # the raw body, before any byte swap
            sha = hashlib.sha256(magic + head + text)  # update releases the GIL on a large block
            blocks = queue.SimpleQueue()

            def hash_blocks():
                while (block := blocks.get()) is not None:
                    sha.update(block)

            thread = threading.Thread(target=hash_blocks)
            thread.start()
            digests[path] = lambda: thread.join() or sha.hexdigest()
        try:
            while done < len(buf):
                got = f.readinto(buf[done : done + READ_BLOCK])
                if not got:  # the file shrank after its size was taken
                    raise error(f"{path}: the {name} body ended after {done} of "
                                f"{len(buf)} bytes")
                if blocks is not None:
                    blocks.put(buf[done : done + got])
                done += got
        finally:
            if blocks is not None:
                blocks.put(None)
    return header, raw.astype(np.float64, copy=False)
