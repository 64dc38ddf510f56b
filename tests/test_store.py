"""repro.utils.store: the one content hash, atomic writer and entry store.

The store's contract, in both of its modes, plus the disk faults a
persisted entry must survive: torn writes, flipped bytes, foreign
files and a full disk.  Each damaged entry must read as absent, be
counted, and — on disk — keep its bad bytes under ``.quarantine/``.
"""

import errno
import io
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.acoustics.geometry import Point
from repro.utils.store import Store, atomic_write, content_key


class TestContentKey:
    def test_stable_across_hash_seeds(self):
        script = (
            "import numpy as np\n"
            "from repro.acoustics.geometry import Point\n"
            "from repro.utils.store import content_key\n"
            "print(content_key('tag', {'b': [1.5, None], 'a': 'x'},\n"
            "                  np.arange(4.0), Point(1.0, 2.0)))\n"
        )
        keys = set()
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  check=True, env=env)
            keys.add(proc.stdout.strip())
        keys.add(content_key("tag", {"a": "x", "b": [1.5, None]},
                             np.arange(4.0), Point(1.0, 2.0)))
        assert len(keys) == 1

    def test_dict_key_order_ignored(self):
        assert content_key({"a": 1, "b": {"c": 2, "d": 3}}) == \
            content_key({"b": {"d": 3, "c": 2}, "a": 1})

    def test_parts_are_length_prefixed(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    @pytest.mark.parametrize("wrap", [
        lambda v: np.array([1.0, v]),
        lambda v: {"value": v},
        lambda v: Point(v, 0.0),
    ], ids=["ndarray", "dict", "dataclass"])
    def test_one_ulp_changes_the_key(self, wrap):
        value = 0.1
        assert content_key(wrap(value)) != \
            content_key(wrap(np.nextafter(value, 1.0)))


class TestAtomicWrite:
    def test_writes_bytes_and_text(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"
        atomic_write(path, "hé")
        assert path.read_bytes() == "hé".encode("utf-8")

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_bytes(b"old bytes")

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.utils.store.os.replace", full_disk)
        with pytest.raises(OSError):
            atomic_write(path, b"new bytes")
        assert path.read_bytes() == b"old bytes"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644),
                                             (0o002, 0o664)],
                             ids=["umask-022", "umask-002"])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            path = atomic_write(tmp_path / "new.json", b"{}")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"old bytes")
        path.chmod(0o640)
        atomic_write(path, b"new bytes")
        assert path.read_bytes() == b"new bytes"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


META = {"label": "office", "lead": [3, -1], "rate": 8000.0,
        "nested": {"none": None, "text": "x"}}


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "taps": rng.normal(size=1024),
        "edge": np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan]),
        "empty": np.zeros(0),
    }


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    directory = tmp_path / "entries" if request.param == "disk" else None
    return Store(directory, label="test")


def _raw(store, name):
    if store.directory is None:
        return store._blobs[name]
    return (store.directory / f"{name}.npz").read_bytes()


def _set_raw(store, name, data):
    if store.directory is None:
        store._blobs[name] = data
    else:
        (store.directory / f"{name}.npz").write_bytes(data)


def _flip_middle_byte(data):
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0xFF
    return bytes(flipped)


def _headerless(data):
    """A well-formed ``.npz`` that was not written by a store."""
    buffer = io.BytesIO()
    np.savez(buffer, taps=np.ones(4))
    return buffer.getvalue()


def _tampered(data):
    """Sound framing and header, changed content: only the digest tells."""
    with np.load(io.BytesIO(data)) as npz:
        members = {key: npz[key] for key in npz.files}
    members["taps"] = members["taps"] + 1.0
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


DAMAGE = {
    "torn": lambda data: data[: len(data) // 2],
    "flipped": _flip_middle_byte,
    "not_npz": lambda data: b"this is not an npz archive",
    "headerless": _headerless,
    "tampered": _tampered,
}


class TestStore:
    def test_round_trip_is_bit_for_bit(self, store):
        arrays = _arrays()
        digest = store.put("entry", META, arrays)
        meta, loaded = store.get("entry")
        assert meta == META
        assert sorted(loaded) == sorted(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == np.float64
            assert loaded[name].tobytes() == array.tobytes()
        assert len(digest) == 64
        # Reads hand out private copies.
        loaded["taps"][:] = 0.0
        assert store.get("entry")[1]["taps"].tobytes() == \
            arrays["taps"].tobytes()
        assert store.corrupt == 0

    def test_put_replaces_an_entry(self, store):
        store.put("entry", META, _arrays(seed=0))
        store.put("entry", {"v": 2}, _arrays(seed=1))
        meta, arrays = store.get("entry")
        assert meta == {"v": 2}
        assert np.array_equal(arrays["taps"], _arrays(seed=1)["taps"])
        assert store.names() == ["entry"]

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_quarantined(self, store, damage):
        store.put("entry", META, _arrays())
        store.put("other", META, _arrays(seed=1))
        bad = DAMAGE[damage](_raw(store, "entry"))
        _set_raw(store, "entry", bad)

        obs.reset()
        with obs.enabled_scope():
            assert store.get("entry") is None
            metrics = obs.get_registry().to_dict()["metrics"]
        obs.reset()
        (counter,) = [m for m in metrics
                      if m["name"] == "store.corruption_total"]
        assert counter["labels"] == {"store": "test"}
        assert counter["value"] == 1
        assert store.corrupt == 1

        # Out of the store; the neighbour is untouched.
        assert store.names() == ["other"]
        assert store.get("entry") is None
        assert store.corrupt == 1
        assert store.get("other") is not None
        if store.directory is not None:
            (kept,) = (store.directory / ".quarantine").iterdir()
            assert kept.name == "entry.npz"
            assert kept.read_bytes() == bad

    def test_enospc_on_put_keeps_previous_entry(self, tmp_path,
                                                monkeypatch):
        store = Store(tmp_path, label="test")
        store.put("entry", META, _arrays(seed=0))

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.utils.store.os.replace", full_disk)
        with pytest.raises(OSError) as excinfo:
            store.put("entry", {"v": 2}, _arrays(seed=1))
        monkeypatch.undo()
        assert excinfo.value.errno == errno.ENOSPC

        meta, arrays = store.get("entry")
        assert meta == META
        assert np.array_equal(arrays["taps"], _arrays(seed=0)["taps"])
        assert [p.name for p in tmp_path.iterdir()] == ["entry.npz"]

    def test_names_sorted_and_filtered(self, store):
        for name in ("b-2", "a-1", "b-1"):
            store.put(name, {}, {})
        assert store.names() == ["a-1", "b-1", "b-2"]
        assert store.names("b-") == ["b-1", "b-2"]
        assert store.names("c") == []

    def test_delete(self, store):
        store.delete("absent")
        store.put("entry", META, _arrays())
        store.delete("entry")
        store.delete("entry")
        assert store.get("entry") is None
        assert store.names() == []
        assert store.corrupt == 0

    def test_missing_directory_is_empty(self, tmp_path):
        store = Store(tmp_path / "never-created", label="test")
        assert store.names() == []
        assert store.get("entry") is None
        assert store.corrupt == 0
