"""Selective asynchronous checkpointing (paper §4.2, Figure 17a).

The spot trainer is preemptible, so checkpoints must be frequent and
cheap.  Three modes, matching the paper's comparison:

* ``sync`` — serialise and write in the foreground (the vanilla
  baseline; the caller blocks for the full disk write);
* ``async`` — snapshot the state in the foreground (a fast memory copy),
  then write in a background thread;
* ``selective_async`` — additionally drop frozen entries (tied
  embeddings / LM head, identified by a name filter) before snapshotting,
  shrinking both the copy and the write.

Writes use ``numpy.savez`` to real files, so the Figure 17(a) benchmark
measures genuine serialisation and I/O latencies.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import CheckpointError

SaveMode = str
_MODES = ("sync", "async", "selective_async")

#: Checkpoints a manager retains; older ones are deleted.
KEEP_LAST = 10


def default_frozen_filter(name: str) -> bool:
    """Keep parameters that are NOT frozen/tied (the trainable set)."""
    lowered = name.lower()
    return not (
        lowered.startswith("frozen")
        or "embed" in lowered
        or "lm_head" in lowered
    )


@dataclass
class CheckpointResult:
    """Outcome of one save call.

    Attributes:
        path: destination file.
        mode: save mode used.
        foreground_s: time the caller was blocked.
        bytes_written: payload size (known after completion for async
            modes; call :meth:`CheckpointManager.wait_all` first).
    """

    path: str
    mode: SaveMode
    foreground_s: float
    bytes_written: int


class CheckpointManager:
    """Frequent, preemption-safe checkpointing of drafter state.

    Args:
        directory: destination directory (created if missing; a temporary
            directory is used when omitted).  The newest ``KEEP_LAST``
            checkpoints are retained.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-ckpt-"
            )
            directory = self._tempdir.name
        else:
            self._tempdir = None
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._threads: List[threading.Thread] = []
        # Completed checkpoints as (submission counter, path); ordering by
        # counter keeps `latest` correct even when background writes
        # finish out of order.
        self._saved: List[tuple] = []
        self._lock = threading.Lock()
        self._counter = 0

    # -- saving ------------------------------------------------------------

    def save(
        self,
        state: Mapping[str, np.ndarray],
        step: int,
        mode: SaveMode = "selective_async",
        trainable_filter: Callable[[str], bool] = default_frozen_filter,
    ) -> CheckpointResult:
        """Save ``state``; returns after the foreground portion only.

        Args:
            state: name -> array mapping (a ParamSet ``state_dict``).
            step: training step tag embedded in the filename.
            mode: ``sync`` / ``async`` / ``selective_async``.
            trainable_filter: name predicate selecting what
                ``selective_async`` retains.
        """
        if mode not in _MODES:
            raise CheckpointError(f"mode must be one of {_MODES}")
        start = time.perf_counter()
        if mode == "selective_async":
            payload = {
                name: np.array(arr, copy=True)
                for name, arr in state.items()
                if trainable_filter(name)
            }
            if not payload:
                raise CheckpointError(
                    "trainable filter removed every parameter"
                )
        else:
            payload = {
                name: np.array(arr, copy=True)
                for name, arr in state.items()
            }
        counter, path = self._next_path(step, mode)
        nbytes = sum(arr.nbytes for arr in payload.values())
        if mode == "sync":
            self._write(counter, path, payload)
            foreground = time.perf_counter() - start
        else:
            thread = threading.Thread(
                target=self._write, args=(counter, path, payload),
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            foreground = time.perf_counter() - start
        return CheckpointResult(
            path=path, mode=mode, foreground_s=foreground,
            bytes_written=nbytes,
        )

    def wait_all(self) -> None:
        """Block until every background write has completed."""
        for thread in self._threads:
            thread.join()
        self._threads = [t for t in self._threads if t.is_alive()]

    # -- loading ------------------------------------------------------------

    def load(self, path: str) -> Dict[str, np.ndarray]:
        """Load a checkpoint file into a name -> array dict."""
        if not os.path.exists(path):
            raise CheckpointError(f"no checkpoint at {path}")
        with np.load(path) as data:
            return {name: data[name] for name in data.files}

    def latest(self) -> Optional[str]:
        """Path of the newest (by submission order) completed checkpoint."""
        with self._lock:
            for _, path in sorted(self._saved, reverse=True):
                if os.path.exists(path):
                    return path
        return None

    # -- internals ----------------------------------------------------------

    def _next_path(self, step: int, mode: SaveMode) -> tuple:
        with self._lock:
            self._counter += 1
            name = f"drafter-step{step:06d}-{self._counter:04d}-{mode}.npz"
            return self._counter, os.path.join(self.directory, name)

    def _write(
        self, counter: int, path: str, payload: Dict[str, np.ndarray]
    ) -> None:
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        with self._lock:
            self._saved.append((counter, path))
            self._saved.sort()
            while len(self._saved) > KEEP_LAST:
                _, stale = self._saved.pop(0)
                try:
                    os.remove(stale)
                except OSError:
                    pass
