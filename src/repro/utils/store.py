"""One store: the content hash, the atomic writer and the entry store.

Every module that persists or fingerprints state — the channel cache,
serving checkpoints, learned-state files, fault and chaos plans, CLI
reports — goes through this one, so three decisions live in one place:
the key derivation (:func:`content_key`, the package's one SHA-256),
the on-disk format (:class:`Store` entries written by
:func:`atomic_write`) and the corruption policy (:meth:`Store.get`
quarantines what fails to verify).  A store can lose data, never
return a wrong value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import stat
from pathlib import Path

import numpy as np

from .. import obs

__all__ = ["STORE_FORMAT", "Store", "atomic_write", "content_key",
           "entry_digest"]

#: Format tag in every entry's header; entries without it are corrupt.
STORE_FORMAT = "repro.store/v1"

#: Name of the ``.npz`` member that holds the header.
_HEADER = "__store__"


def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_key(*parts):
    """The SHA-256 hex digest of ``parts``, stable across processes.

    Each part is length-prefixed, so ``("ab", "c")`` and ``("a", "bc")``
    differ.  ``str`` parts hash as UTF-8, ``dict`` parts as canonical
    JSON (sorted keys, compact separators), ``ndarray`` parts as
    float64 bytes, and anything else by ``repr`` — which covers frozen
    dataclasses of scalars, because float reprs round-trip exactly.
    No ``hash()`` is involved, so ``PYTHONHASHSEED`` cannot move a key.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        elif isinstance(part, dict):
            data = _canonical_json(part).encode("utf-8")
        elif isinstance(part, np.ndarray):
            data = np.ascontiguousarray(part, dtype=np.float64).tobytes()
        else:
            data = repr(part).encode("utf-8")
        hasher.update(len(data).to_bytes(8, "little"))
        hasher.update(data)
    return hasher.hexdigest()


def entry_digest(meta, arrays):
    """The digest a :class:`Store` entry carries and is verified against:
    ``content_key(meta, *arrays in sorted-name order)``."""
    return content_key(meta, *(arrays[name] for name in sorted(arrays)))


def atomic_write(path, data):
    """Write ``data`` (bytes, or str as UTF-8) to ``path`` all or nothing.

    The bytes go to a fresh temp file in the destination directory,
    which is then renamed over ``path`` with ``os.replace``; on any
    failure the temp file is unlinked and an existing ``path`` keeps
    its old bytes.  The file ends with the mode a plain ``open(path,
    "wb")`` would leave: a new file gets ``0o666`` less the umask, and
    a file it replaces keeps its mode.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp = _create_temp(path)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _create_temp(path):
    """Create and open a new, uniquely named file beside ``path``.

    Made with mode ``0o666`` like any ``open(..., "w")``, so the umask
    (and a default ACL) apply.  ``tempfile.mkstemp`` would make it
    ``0o600``, and the rename would carry that mode over to ``path``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for __ in range(100):
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temp-file name beside {path}")


class Store:
    """Named entries of JSON metadata plus float arrays, verified on read.

    Parameters
    ----------
    directory : path or None
        Where entries live, as ``<name>.npz`` files; ``None`` keeps the
        same bytes in a dict instead.  The two modes differ only in
        where the bytes live.
    label : str
        Names this store in the ``store.corruption_total{store=...}``
        obs counter.

    Notes
    -----
    :meth:`get` re-derives :func:`entry_digest` from the decoded
    content and compares it with the digest the header carries, so
    truncation, bit rot and foreign files are all caught.  Such an
    entry is quarantined: counted in :attr:`corrupt` and the obs
    counter, moved into ``<directory>/.quarantine/`` (unlinked if the
    move fails; dropped in memory mode), and read as ``None``.
    """

    def __init__(self, directory=None, label="store"):
        self.directory = Path(directory) if directory is not None else None
        self.label = str(label)
        self.corrupt = 0
        self._blobs = {}

    def put(self, name, meta, arrays):
        """Store ``meta`` (JSON-able dict) and ``arrays`` under ``name``.

        Replaces any entry of that name; returns the entry digest.
        On disk, an ``OSError`` (full or read-only disk) propagates and
        the previous entry stays readable.
        """
        arrays = {key: np.ascontiguousarray(value, dtype=np.float64)
                  for key, value in arrays.items()}
        digest = entry_digest(meta, arrays)
        header = _canonical_json(
            {"format": STORE_FORMAT, "meta": meta, "digest": digest})
        buffer = io.BytesIO()
        np.savez(buffer, **{_HEADER: np.frombuffer(
            header.encode("utf-8"), dtype=np.uint8)}, **arrays)
        if self.directory is None:
            self._blobs[name] = buffer.getvalue()
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write(self._path(name), buffer.getvalue())
        return digest

    def get(self, name):
        """``(meta, arrays)`` of entry ``name``, or ``None``.

        ``None`` when the entry is absent or unreadable, and when it is
        corrupt — in which case it has been quarantined.  The arrays
        are fresh copies owned by the caller.
        """
        try:
            data = (self._blobs[name] if self.directory is None
                    else self._path(name).read_bytes())
        except (KeyError, OSError):
            return None
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                header = json.loads(bytes(npz[_HEADER]).decode("utf-8"))
                arrays = {key: npz[key] for key in npz.files
                          if key != _HEADER}
            if header["format"] != STORE_FORMAT \
                    or entry_digest(header["meta"], arrays) \
                    != header["digest"]:
                raise ValueError("entry does not verify")
        except Exception:
            # Any failure to decode stored bytes — bad zip framing, a
            # missing header, a digest mismatch — means corruption.
            self.quarantine(name)
            return None
        return header["meta"], arrays

    def names(self, prefix=""):
        """Sorted names of the stored entries that start with ``prefix``."""
        if self.directory is None:
            found = self._blobs
        else:
            found = [path.stem for path in self.directory.glob("*.npz")]
        return sorted(name for name in found if name.startswith(prefix))

    def delete(self, name):
        """Remove entry ``name``; an absent name is not an error."""
        if self.directory is None:
            self._blobs.pop(name, None)
            return
        with contextlib.suppress(OSError):
            self._path(name).unlink()

    def quarantine(self, name):
        """Count entry ``name`` as corrupt and move it out of the store."""
        self.corrupt += 1
        if obs.enabled():
            obs.get_registry().counter("store.corruption_total",
                                       store=self.label).inc()
        if self.directory is None:
            self._blobs.pop(name, None)
            return
        path = self._path(name)
        try:
            qdir = self.directory / ".quarantine"
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            # Cannot move it (read-only dir, cross-device ...): delete
            # it so the poisoned entry never reads again.
            with contextlib.suppress(OSError):
                path.unlink()

    def _path(self, name):
        return self.directory / f"{name}.npz"
