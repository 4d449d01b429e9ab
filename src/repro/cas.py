"""The content-addressed disk tier shared by the solver and spec caches.

Both caches address a value by the SHA-256 of a canonical text of its
inputs (:func:`address`), keep their own in-memory map, and may persist
through a :class:`DiskTier`; only their key schemas and payloads differ.

An entry is the JSON document ``{"schema", "key", "checksum",
"result"}`` at ``<directory>/<key[:2]>/<key>.json``.  A corrupted,
truncated, tampered or stale entry is deleted on load and reported as a
miss, so the recomputed value replaces it.  Writes go through a
temporary file and ``os.replace``, so readers only see whole entries; a
read-only or full disk degrades to memory-only caching.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def address(text: str) -> str:
    """The content address (hex SHA-256) of a canonical text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def checksum(result: Any) -> str:
    """The checksum stored beside, and verified against, a result."""
    return address(json.dumps(result, sort_keys=True, separators=(",", ":")))


class DiskTier:
    """One directory of schema-versioned, checksummed entries.

    ``on_reject`` is called once per entry discarded on load.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        schema: int,
        on_reject: Callable[[], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.schema = schema
        self._on_reject = on_reject

    def path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def load(self, key: str, decode: Callable[[Any], T]) -> T | None:
        """The decoded result stored under ``key``, or None.

        ``decode`` turns the JSON result into the caller's value and
        raises ``KeyError``/``ValueError``/``TypeError`` when it is
        malformed, which rejects the entry like any other check.
        """
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("not an object")
            if document.get("schema") != self.schema:
                raise ValueError("stale schema")
            if document.get("key") != key:
                raise ValueError("key mismatch")
            result = document["result"]
            if document.get("checksum") != checksum(result):
                raise ValueError("checksum mismatch")
            return decode(result)
        except (KeyError, ValueError, TypeError):
            if self._on_reject is not None:
                self._on_reject()
            with suppress(OSError):
                path.unlink()
            return None

    def save(self, key: str, result: Any) -> None:
        """Store ``result`` (JSON-safe) under ``key``, atomically."""
        path = self.path(key)
        document = {
            "schema": self.schema,
            "key": key,
            "checksum": checksum(result),
            "result": result,
        }
        with suppress(OSError):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                os.replace(tmp, path)
            except BaseException:
                with suppress(OSError):
                    os.unlink(tmp)
                raise
