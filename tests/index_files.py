"""The index file's framing, for tests that write a header of their own:
the magic, the header length as a u64, the JSON header, then the rows."""

import json
import struct

from candgen.retrieval import _INDEX_MAGIC

_START = len(_INDEX_MAGIC) + 8


def split_index(raw: bytes) -> tuple[dict, bytes]:
    """The header and the body of an index file's bytes."""
    (hlen,) = struct.unpack("<Q", raw[len(_INDEX_MAGIC) : _START])
    return json.loads(raw[_START : _START + hlen]), raw[_START + hlen :]


def index_with_header(header: dict, body: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return _INDEX_MAGIC + struct.pack("<Q", len(text)) + text + body
