"""OsBackend's kept-open read descriptors, with MemoryBackend as the
oracle: whatever happens to a name between two range reads, both
backends return the same bytes — no stale descriptor serves a recycled
name — and ``close()`` leaves nothing open."""

import os

import pytest

from repro.common.errors import StorageError
from repro.storage import MemoryBackend, OsBackend

OLD = b"old-content:" + bytes(range(64))
NEW = b"NEW!" + bytes(reversed(range(200)))
WINDOWS = [(0, 16), (5, 40), (60, 1000), (300, 8)]  # incl. past end-of-file


def recreate(backend):
    backend.delete("run")
    backend.append("run", NEW)
    backend.fsync("run")


def crash_then_recreate(backend):
    backend.simulate_crash()
    assert backend.read_range("run", 0, 16) == OLD[:16]  # fsynced: survives
    recreate(backend)


STEPS = {
    "delete-recreate": (recreate, NEW),
    "replace": (lambda backend: backend.replace("run", NEW), NEW),
    "crash": (crash_then_recreate, NEW),
    # Appended bytes are visible to the next range read, synced or not.
    "append": (lambda backend: backend.append("run", NEW), OLD + NEW),
}


@pytest.mark.parametrize("step", sorted(STEPS))
def test_range_reads_never_see_a_recycled_names_old_bytes(tmp_path, step):
    change, expected = STEPS[step]
    backends = [MemoryBackend(), OsBackend(tmp_path)]
    for backend in backends:
        backend.append("run", OLD)
        backend.fsync("run")
        assert [backend.read_range("run", *w) for w in WINDOWS] == [
            OLD[off:off + length] for off, length in WINDOWS
        ]
        change(backend)
    oracle, real = (
        [backend.read_range("run", *w) for w in WINDOWS]
        for backend in backends
    )
    assert real == oracle == [
        expected[off:off + length] for off, length in WINDOWS
    ]
    backends[1].close()


def test_close_and_crash_leave_no_descriptor_open(tmp_path):
    backend = OsBackend(tmp_path)
    for closer in (backend.close, backend.simulate_crash):
        for name in ("a", "b"):
            backend.replace(name, OLD)
            assert backend.read_range(name, 0, 4) == OLD[:4]
        fds = list(backend._readers.values())
        assert len(fds) == 2
        closer()
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert backend.read_range("a", 0, 4) == OLD[:4]  # re-opens on demand
        backend.close()


@pytest.mark.parametrize("make", [MemoryBackend, OsBackend])
def test_bad_range_reads_raise_storage_errors(tmp_path, make):
    backend = make(tmp_path) if make is OsBackend else make()
    backend.replace("run", OLD)
    for offset, length in ((-1, 4), (0, -4)):
        with pytest.raises(StorageError, match="negative"):
            backend.read_range("run", offset, length)
    with pytest.raises(StorageError, match="no such file"):
        backend.read_range("missing", 0, 4)
    backend.delete("run")
    with pytest.raises(StorageError, match="no such file"):
        backend.read_range("run", 0, 4)
