"""Content-addressed on-disk cache for run results.

An entry is the canonical spec/v3 JSON of one ``RunResult`` (the bytes
a fleet worker reports) at ``<root>/<first two hex chars>/<fingerprint>.json``;
the fingerprint (see :meth:`repro.runner.task.Task.fingerprint`) already
folds in the code-version salt, so the cache itself is dumb storage:
``get`` and ``put`` by key, atomic writes. An entry that does not decode
is a counted miss and is deleted; old ``.pkl`` entries are never read.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

from repro import env
from repro.codec import WireFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import RunResult


class ResultCache:
    """One spec/v3 JSON file per entry, addressed by content fingerprint."""

    def __init__(self, root: str | os.PathLike = None) -> None:
        self.root = Path(root if root is not None else env.cache_dir())
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Tuple[bool, Optional["RunResult"]]:
        """``(True, result)`` on a hit, ``(False, None)`` on a miss."""
        # Here, not at the top: repro.fleet imports this module.
        from repro.fleet.wire import result_from_json

        path = self.path_for(key)
        try:
            result = result_from_json(path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (OSError, WireFormatError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return False, None
        self.hits += 1
        return True, result

    def put(self, key: str, result: "RunResult") -> None:
        """Atomically store ``result``: tmp file + rename, never partial.
        Anything but a ``RunResult`` is a :class:`WireFormatError`."""
        from repro.fleet.wire import result_to_json

        data = result_to_json(result).encode()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
