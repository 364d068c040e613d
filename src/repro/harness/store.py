"""Content-addressed, checksummed result store for durable sweeps.

Determinism makes every completed unit cacheable forever: the outcome of
one ``(suite, benchmark, config, seed, round, engine)`` unit is a pure
function of its key, so the store files it under the SHA-256 of the
canonical-JSON key.  ``--resume`` (and, later, the
benchmark-as-a-service cache) then serves completed units straight from
disk instead of re-running them.

Object layout: ``<root>/objects/<aa>/<digest>`` where ``aa`` is the
first two hex digits (git-style fan-out).  Each object is::

    sha256-hex-of-payload \\n payload-bytes

The embedded checksum catches torn writes and bit rot: a payload that
fails verification is treated as *absent* (and unlinked), which simply
re-runs the unit — corruption is never fatal and never silently served.
Writes are atomic (temp file + ``os.replace``) so a ``kill -9``
mid-``put`` can never leave a half object under the final name.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re

from repro.errors import StoreLockedError

try:                                                 # POSIX only; the
    import fcntl                                     # lock degrades to
except ImportError:                                  # pragma: no cover
    fcntl = None                                     # a no-op elsewhere


#: What :func:`canonical_digest` returns; nothing else names an object.
_DIGEST = re.compile(r"[0-9a-f]{64}")


def canonical_digest(key: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a unit key."""
    body = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def encode_outcome(outcome: dict) -> bytes:
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def decode_outcome(payload: bytes) -> dict:
    return pickle.loads(payload)


class StoreLock:
    """Advisory single-writer lock over one sweep/store directory.

    The journal and store tolerate crashed writers (checksums, atomic
    replace) but not *concurrent* ones: two controllers appending to one
    journal interleave records, and resume-time replay would attribute
    them to the wrong sweep.  An exclusive ``flock`` on
    ``<root>/store.lock`` makes the single-writer assumption explicit —
    a second opener gets :class:`~repro.errors.StoreLockedError`
    immediately instead of corrupting state, and a ``kill -9`` releases
    the lock automatically with the process.
    """

    def __init__(self, root) -> None:
        self.path = os.path.join(str(root), "store.lock")
        self._fh = None

    def acquire(self, *, owner: str = "writer") -> "StoreLock":
        if fcntl is None:                            # pragma: no cover
            return self
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        fh = open(self.path, "a+")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.seek(0)
            holder = fh.read(256).strip() or "another process"
            fh.close()
            raise StoreLockedError(
                f"{os.path.dirname(self.path)} is locked by {holder}; "
                f"the journal/store allow a single writer — stop it "
                f"first (a killed writer releases the lock itself)")
        fh.truncate(0)
        fh.write(f"{owner} pid={os.getpid()}\n")
        fh.flush()
        self._fh = fh
        return self

    def release(self) -> None:
        if self._fh is not None:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            except OSError:                          # pragma: no cover
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class ResultStore:
    """Checksummed object store keyed by unit digest."""

    def __init__(self, root) -> None:
        self.root = str(root)
        self.objects = os.path.join(self.root, "objects")
        #: Corrupt objects encountered by :meth:`get` (digest, reason).
        self.corrupt: list[tuple[str, str]] = []

    def _path(self, digest: str) -> str | None:
        """The object file of ``digest``; None unless ``digest`` is a
        SHA-256 hex digest, so a caller's string (a URL segment) never
        becomes a path outside the object directory."""
        if not _DIGEST.fullmatch(digest):
            return None
        return os.path.join(self.objects, digest[:2], digest)

    # ------------------------------------------------------------------
    def put(self, digest: str, payload: bytes) -> str:
        """Atomically store ``payload`` under ``digest``; returns path."""
        path = self._path(digest)
        if path is None:
            raise ValueError(f"not a SHA-256 hex digest: {digest!r}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = hashlib.sha256(payload).hexdigest().encode() + b"\n"
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
        os.replace(tmp, path)
        return path

    def get(self, digest: str) -> bytes | None:
        """Verified payload bytes, or None if absent/corrupt.

        A corrupt object is recorded in :attr:`corrupt` and unlinked so
        the unit re-runs and the next ``put`` rewrites it cleanly.
        """
        path = self._path(digest)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                header = fh.readline().strip()
                payload = fh.read()
        except OSError:
            return None
        if hashlib.sha256(payload).hexdigest().encode() != header:
            self.corrupt.append((digest, "payload checksum mismatch"))
            try:
                os.unlink(path)
            except OSError:                          # pragma: no cover
                pass
            return None
        return payload

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None

    def __len__(self) -> int:
        if not os.path.isdir(self.objects):
            return 0
        return sum(
            1 for fan in os.listdir(self.objects)
            for name in os.listdir(os.path.join(self.objects, fan))
            if not name.endswith(".tmp"))

    # ------------------------------------------------------------------
    # Maintenance: listing, verification, garbage collection.
    # ------------------------------------------------------------------
    def _entries(self):
        """Yield (digest, path) for every stored object, sorted."""
        if not os.path.isdir(self.objects):
            return
        for fan in sorted(os.listdir(self.objects)):
            fan_dir = os.path.join(self.objects, fan)
            for name in sorted(os.listdir(fan_dir)):
                yield name, os.path.join(fan_dir, name)

    def verify(self, digest: str) -> tuple[bool, int, str]:
        """Non-destructive checksum check: (ok, payload bytes, reason).

        Unlike :meth:`get`, a corrupt object is *not* unlinked — this is
        the read-only half that ``--store-ls`` and :meth:`gc` share.
        """
        path = self._path(digest)
        if path is None:
            return False, 0, "absent"
        try:
            with open(path, "rb") as fh:
                header = fh.readline().strip()
                payload = fh.read()
        except OSError:
            return False, 0, "absent"
        if hashlib.sha256(payload).hexdigest().encode() != header:
            return False, len(payload), "payload checksum mismatch"
        return True, len(payload), "ok"

    def ls(self) -> list[dict]:
        """Every object with its size and verification verdict."""
        out = []
        for digest, path in self._entries():
            if digest.endswith(".tmp"):
                out.append({"digest": digest[:-4], "bytes":
                            os.path.getsize(path), "ok": False,
                            "reason": "orphan temp file"})
                continue
            ok, size, reason = self.verify(digest)
            out.append({"digest": digest, "bytes": size, "ok": ok,
                        "reason": reason})
        return out

    def gc(self, referenced: set | None = None) -> dict:
        """Prune corrupt objects, orphan temp files, and (when a
        ``referenced`` digest set is given) entries no journal refers to.

        Determinism makes pruning always safe: a pruned unit simply
        re-runs on the next sweep that needs it.  Returns counters
        (``kept``/``pruned_corrupt``/``pruned_unreferenced``/
        ``pruned_tmp``/``bytes_freed``).
        """
        stats = {"kept": 0, "pruned_corrupt": 0, "pruned_unreferenced": 0,
                 "pruned_tmp": 0, "bytes_freed": 0}

        def unlink(path: str, bucket: str) -> None:
            try:
                stats["bytes_freed"] += os.path.getsize(path)
                os.unlink(path)
            except OSError:                          # pragma: no cover
                return
            stats[bucket] += 1

        for digest, path in self._entries():
            if digest.endswith(".tmp"):
                unlink(path, "pruned_tmp")
                continue
            ok, _, _ = self.verify(digest)
            if not ok:
                unlink(path, "pruned_corrupt")
            elif referenced is not None and digest not in referenced:
                unlink(path, "pruned_unreferenced")
            else:
                stats["kept"] += 1
        # Drop fan-out directories emptied by the pruning.
        if os.path.isdir(self.objects):
            for fan in os.listdir(self.objects):
                fan_dir = os.path.join(self.objects, fan)
                if not os.listdir(fan_dir):
                    os.rmdir(fan_dir)
        return stats
