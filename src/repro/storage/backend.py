"""Storage backends: the narrow file API the durability tier writes to.

Two implementations share one surface (create/append/fsync/replace/
delete/list):

* :class:`OsBackend` — real files under a validated ``data_dir``; what
  the durability benchmark and the ``recover`` CLI use to measure real
  fsync costs.
* :class:`MemoryBackend` — a deterministic in-memory fake filesystem
  with an explicit **durability model**: every file tracks its visible
  content *and* the prefix that would survive a power failure. A
  seeded :class:`FaultProfile` injects the classic storage faults —
  torn (partial) writes, silently lost fsyncs, and bit flips in the
  torn tail — so recovery code is exercised against corrupt logs and
  truncated snapshots *inside the deterministic simulator*, with no
  host I/O. All randomness flows from one ``random.Random(seed)`` in
  operation order, so a same-seed chaos run replays bit-for-bit.

The model is deliberately adversarial about unsynced data: on a crash,
bytes written since the last successful fsync are lost entirely unless
the profile's ``partial_write`` fires, in which case a random *prefix*
of them survives (a torn write — exactly what the WAL's checksummed
records must detect). ``replace`` (write-temp-then-rename) is modelled
as atomic: the destination holds either the old durable content or the
new fsynced content, never a mixture — matching POSIX ``rename`` on a
journalling filesystem, which is the contract the manifest swap relies
on.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import StorageError

#: Live counters for benchmarks and tests (mirrors STORE_COUNTERS style).
STORAGE_COUNTERS = {
    "appends": 0,
    "fsyncs": 0,
    "fsyncs_lost": 0,
    "replaces": 0,
    "crashes": 0,
    "torn_tails": 0,
    "torn_detected": 0,
    "bit_flips": 0,
    "scripted_failures": 0,
    "resyncs": 0,
}


def reset_storage_counters() -> None:
    for key in STORAGE_COUNTERS:
        STORAGE_COUNTERS[key] = 0


@dataclass(frozen=True)
class FaultProfile:
    """Seeded storage-fault rates for :class:`MemoryBackend`.

    Attributes:
        seed: RNG seed; every probability below draws from it in
            strict operation order (determinism).
        partial_write: On crash, probability that a file's unsynced
            tail survives *partially* (a random prefix — a torn write)
            instead of being lost whole.
        fsync_lost: Probability that an ``fsync`` reports success but
            leaves the data volatile (lost on the next crash) — the
            lying-disk model.
        bit_flip: Given a surviving torn tail, probability that one of
            its bits is flipped (latent corruption the checksums must
            catch).
    """

    seed: int = 0
    partial_write: float = 0.0
    fsync_lost: float = 0.0
    bit_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("partial_write", "fsync_lost", "bit_flip"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise StorageError(f"{name} must be in [0, 1], got {value}")


#: The fault-free profile (still deterministic, still drops unsynced
#: data on crash — that part is the durability model, not a fault).
CLEAN_PROFILE = FaultProfile()


class _MemoryFile:
    __slots__ = ("content", "durable_len", "synced_len", "fallback")

    def __init__(self, content: bytes = b"") -> None:
        self.content = bytearray(content)
        #: Bytes guaranteed to survive a crash.
        self.durable_len = len(content)
        #: Bytes the caller *believes* are durable (fsync return value);
        #: differs from durable_len only when an fsync was lost.
        self.synced_len = len(content)
        #: Pre-replace durable content, kept while the replace's rename
        #: is not yet journalled (None once durable).
        self.fallback: bytes | None = None


class MemoryBackend:
    """Deterministic fake filesystem with seeded fault injection.

    ``fail_after_ops`` scripts a hard stop: after that many further
    mutating operations (appends, fsyncs, replaces, deletes) the
    backend raises :class:`StorageError` and simulates a crash — the
    lever the crash-during-compaction atomicity test uses to kill the
    process at an exact point inside a multi-file update.
    """

    def __init__(self, profile: FaultProfile | None = None) -> None:
        self.profile = profile or CLEAN_PROFILE
        self._rng = random.Random(self.profile.seed)
        self._files: dict[str, _MemoryFile] = {}
        self._fail_after: int | None = None

    # -- scripted failures ---------------------------------------------------

    def fail_after_ops(self, count: int | None) -> None:
        """Crash the backend after ``count`` more mutating operations
        (``None`` disarms)."""
        self._fail_after = count

    def _count_op(self) -> None:
        if self._fail_after is None:
            return
        if self._fail_after <= 0:
            self._fail_after = None
            STORAGE_COUNTERS["scripted_failures"] += 1
            self.simulate_crash()
            raise StorageError("scripted backend failure (fail_after_ops)")
        self._fail_after -= 1

    # -- file operations -----------------------------------------------------

    def append(self, name: str, data: bytes) -> None:
        """Append ``data`` to ``name``, creating it if missing. The new
        bytes are volatile until the next successful fsync."""
        self._count_op()
        self._files.setdefault(name, _MemoryFile()).content.extend(data)
        STORAGE_COUNTERS["appends"] += 1

    def fsync(self, name: str) -> None:
        """Make ``name``'s content durable — unless the lying-disk fault
        fires, in which case success is reported but nothing persists."""
        self._count_op()
        f = self._files.get(name)
        if f is None:
            raise StorageError(f"fsync of unknown file {name!r}")
        STORAGE_COUNTERS["fsyncs"] += 1
        f.synced_len = len(f.content)
        if (
            self.profile.fsync_lost > 0.0
            and self._rng.random() < self.profile.fsync_lost
        ):
            STORAGE_COUNTERS["fsyncs_lost"] += 1
            return
        f.durable_len = len(f.content)
        f.fallback = None

    def replace(self, name: str, data: bytes) -> None:
        """Atomically install ``data`` as the full content of ``name``
        (the write-temp + fsync + rename idiom, collapsed).

        Durability of the *new* content still requires the rename to be
        journalled; the lying-disk fault may leave the old durable
        content in place instead — but never a torn mixture.
        """
        self._count_op()
        STORAGE_COUNTERS["replaces"] += 1
        old = self._files.get(name)
        new = _MemoryFile(bytes(data))
        if (
            self.profile.fsync_lost > 0.0
            and self._rng.random() < self.profile.fsync_lost
        ):
            STORAGE_COUNTERS["fsyncs_lost"] += 1
            # Rename not yet journalled: the new content is visible now,
            # but a crash atomically restores the old durable content
            # (or removes the file if it never existed durably).
            new.durable_len = 0
            new.fallback = (
                bytes(old.content[: old.durable_len]) if old is not None
                else b""
            )
        self._files[name] = new

    def read(self, name: str) -> bytes:
        f = self._files.get(name)
        if f is None:
            raise StorageError(f"no such file: {name!r}")
        return bytes(f.content)

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` — the paged read path's
        primitive (a short read past end-of-file returns what exists;
        callers detect truncation via per-block checksums)."""
        f = self._files.get(name)
        if f is None:
            raise StorageError(f"no such file: {name!r}")
        if offset < 0 or length < 0:
            raise StorageError(
                f"negative read_range ({offset}, {length}) on {name!r}"
            )
        return bytes(f.content[offset:offset + length])

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._count_op()
        self._files.pop(name, None)

    def list(self) -> list[str]:
        return sorted(self._files)

    def size(self, name: str) -> int:
        f = self._files.get(name)
        return len(f.content) if f is not None else 0

    # -- the crash model -----------------------------------------------------

    def simulate_crash(self) -> None:
        """Power failure: every file reverts to its durable prefix.

        The unsynced tail of each file is dropped — unless the
        ``partial_write`` fault fires, in which case a random prefix of
        the tail survives (torn write), possibly with one bit flipped
        (``bit_flip``). Deterministic: faults draw from the backend RNG
        in sorted-file order.
        """
        STORAGE_COUNTERS["crashes"] += 1
        for name in sorted(self._files):
            f = self._files[name]
            if f.fallback is not None:
                # Un-journalled replace: the old durable content returns
                # whole — rename is atomic, never torn.
                f.content = bytearray(f.fallback)
                f.durable_len = f.synced_len = len(f.content)
                f.fallback = None
                continue
            keep = f.durable_len
            torn = b""
            tail = bytes(f.content[keep:])
            if (
                tail
                and self.profile.partial_write > 0.0
                and self._rng.random() < self.profile.partial_write
            ):
                torn = tail[: self._rng.randint(1, len(tail))]
                STORAGE_COUNTERS["torn_tails"] += 1
                if (
                    self.profile.bit_flip > 0.0
                    and self._rng.random() < self.profile.bit_flip
                ):
                    flipped = bytearray(torn)
                    position = self._rng.randrange(len(flipped))
                    flipped[position] ^= 1 << self._rng.randrange(8)
                    torn = bytes(flipped)
                    STORAGE_COUNTERS["bit_flips"] += 1
            f.content = bytearray(f.content[:keep] + torn)
            f.durable_len = f.synced_len = len(f.content)
        # Empty durable files that never saw an fsync vanish entirely,
        # like files created but never persisted.
        for name in [n for n, f in self._files.items() if not f.content]:
            del self._files[name]


class OsBackend:
    """Real files under one directory; the measured-durability backend.

    Range reads ``os.pread`` from one kept-open read-only descriptor
    per file (run files are write-once and read a block at a time). It
    is dropped on ``delete``/``replace``/``simulate_crash``/``close``
    and when an append handle opens on the name, so a recycled name is
    always re-opened.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._handles: dict[str, object] = {}
        self._readers: dict[str, int] = {}

    def _path(self, name: str) -> Path:
        return self.root / name

    def _append_handle(self, name: str):
        handle = self._handles.get(name)
        if handle is None:
            self._drop_reader(name)
            handle = self._handles[name] = open(self._path(name), "ab")
        return handle

    def append(self, name: str, data: bytes) -> None:
        self._append_handle(name).write(data)
        STORAGE_COUNTERS["appends"] += 1

    def fsync(self, name: str) -> None:
        handle = self._append_handle(name)
        handle.flush()
        os.fsync(handle.fileno())
        STORAGE_COUNTERS["fsyncs"] += 1

    def replace(self, name: str, data: bytes) -> None:
        self._close_handle(name)
        temp = self._path(name + ".tmp")
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self._path(name))
        STORAGE_COUNTERS["replaces"] += 1

    def read(self, name: str) -> bytes:
        self._flush_handle(name)
        try:
            return self._path(name).read_bytes()
        except FileNotFoundError:
            raise StorageError(f"no such file: {name!r}") from None

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        """Read one slice — what lets the paged store verify a single
        4KB block without pulling the whole run into memory."""
        self._flush_handle(name)
        if offset < 0 or length < 0:
            raise StorageError(
                f"negative read_range ({offset}, {length}) on {name!r}"
            )
        fd = self._readers.get(name)
        if fd is None:
            try:
                fd = os.open(self._path(name), os.O_RDONLY)
            except FileNotFoundError:
                raise StorageError(f"no such file: {name!r}") from None
            self._readers[name] = fd
        return os.pread(fd, length, offset)

    def exists(self, name: str) -> bool:
        self._flush_handle(name)
        return self._path(name).exists()

    def delete(self, name: str) -> None:
        self._close_handle(name)
        try:
            self._path(name).unlink()
        except FileNotFoundError:
            pass

    def list(self) -> list[str]:
        for name in list(self._handles):
            self._flush_handle(name)
        return sorted(
            p.name for p in self.root.iterdir() if p.is_file()
        )

    def size(self, name: str) -> int:
        self._flush_handle(name)
        try:
            return self._path(name).stat().st_size
        except FileNotFoundError:
            return 0

    def simulate_crash(self) -> None:
        """Process crash: drop open handles without flushing. File
        contents persist — real durability is the kernel's job here."""
        STORAGE_COUNTERS["crashes"] += 1
        self._handles.clear()
        for name in list(self._readers):
            self._drop_reader(name)

    def close(self) -> None:
        for name in {*self._handles, *self._readers}:
            self._close_handle(name)

    def _flush_handle(self, name: str) -> None:
        handle = self._handles.get(name)
        if handle is not None:
            handle.flush()  # type: ignore[attr-defined]

    def _close_handle(self, name: str) -> None:
        """Close whatever is open on ``name``, append handle and reader."""
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()  # type: ignore[attr-defined]
        self._drop_reader(name)

    def _drop_reader(self, name: str) -> None:
        fd = self._readers.pop(name, None)
        if fd is not None:
            os.close(fd)
