"""Trace content digests — the first component of the store key.

Three inputs can feed an analysis, and each gets a digest without decoding
a single trace record:

* **binary trace file, format ≥ 2** — the digest was computed while the
  trace was being *written* (one incremental SHA-256 update per record
  block, see :class:`repro.trace.binio.TraceBinaryWriter`) and sits in the
  footer, so reading it back is one footer decode: O(footer), not O(trace);
* **text trace file, or a version-1 binary file** — fall back to a chunked
  SHA-256 over the raw file bytes (still zero record decodes — the bytes
  are hashed, never parsed);
* **in-memory :class:`~repro.trace.records.Trace`** — the digest of the
  in-memory binary trace the analysis walks
  (:func:`repro.trace.binio.encode_trace`, called by
  :meth:`repro.core.pipeline.AutoCheck.cache_key`).  Because the writer's
  footer digest covers exactly the record blocks plus the encoded globals
  (not the header, string table or index), an in-memory trace and the
  binary file written from it produce the *same* digest — an analysis
  cached from one input form is a hit for the other.

The text-file fallback hashes the file's bytes, so the same logical trace
in text and binary encodings gets *different* digests (they are different
artifacts; re-encoding changes the cache key).  That trade keeps warm runs
at zero record decodes on every path, which the cache smoke tests assert.
"""

from __future__ import annotations

import hashlib
from typing import IO

#: Read granularity of the raw-bytes fallback.
_CHUNK_BYTES = 1 << 20


def digest_file_bytes(path: str) -> str:
    """Hex SHA-256 of the raw bytes of ``path``, read in bounded chunks."""
    sha256 = hashlib.sha256()
    with open(path, "rb") as handle:
        _update_from_handle(sha256, handle)
    return sha256.hexdigest()


def _update_from_handle(sha256: "hashlib._Hash", handle: IO[bytes]) -> None:
    while True:
        chunk = handle.read(_CHUNK_BYTES)
        if not chunk:
            return
        sha256.update(chunk)


def compute_trace_digest(path: str) -> str:
    """Content digest of the trace file at ``path``; zero record decodes.

    Binary traces of format ≥ 2 return the footer digest (O(footer));
    text traces and version-1 binary files hash their raw bytes.
    """
    from repro.trace.binio import is_binary_trace_file, read_layout

    if is_binary_trace_file(path):
        layout = read_layout(path)
        if layout.content_digest is not None:
            return layout.content_digest
    return digest_file_bytes(path)

