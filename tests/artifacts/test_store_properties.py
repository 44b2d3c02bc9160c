"""Property-based tests of the unified content-addressed artifact store.

The store's invariants, over hypothesis-generated payloads and keys:

- **Round trip**: anything put under any (namespace, key) comes back
  byte-identical, through both the memory and the directory backend.
- **Key determinism**: the object address is a pure function of content;
  the key encoding is injective and round-trips, so distinct keys can
  never collide on disk and no key can collide with the atomic-write
  temp namespace.
- **Last write wins**: any interleaving of writers to one key leaves
  the key serving exactly the final payload — and every payload ever
  written remains intact in the object layer (content addressing makes
  overwrites non-destructive).
- **Corruption is quarantined, never served**: flipping bits in a
  stored object (or scribbling on a ref) makes reads fail loudly
  exactly once, after which the key is recomputable and serves fresh
  bytes again — the cache-miss-equivalent contract ModelCache and
  PageStore rely on.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    ArtifactIntegrityError,
    ArtifactStore,
    LocalDirBackend,
    ObjectCorruption,
    decode_key,
    encode_key,
    object_address,
)

from tests.conftest import memory_store

#: Key segments: anything printable-ish, including characters that need
#: percent-encoding, leading dots, and unicode.
SEGMENT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="/\x00"),
    min_size=1, max_size=24)
KEY = st.lists(SEGMENT, min_size=1, max_size=3).map("/".join)
PAYLOAD = st.binary(min_size=0, max_size=2048)

LOCAL_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

#: Hypothesis reuses one tmp_path across a test's examples; a fresh
#: subdirectory per example keeps them independent (hierarchical keys
#: from one example would otherwise collide with flat keys of the next).
_example = iter(range(10 ** 9))


def _fresh_root(tmp_path) -> Path:
    return tmp_path / f"store-{next(_example)}"


class TestRoundTrip:
    @given(key=KEY, payload=PAYLOAD)
    @settings(max_examples=50, deadline=None)
    def test_memory_put_get_round_trip(self, key, payload):
        store = memory_store()
        address = store.put("ns", key, payload)
        assert store.get("ns", key) == payload
        assert store.get_object(address) == payload
        assert store.exists("ns", key)

    @given(key=KEY, payload=PAYLOAD)
    @LOCAL_SETTINGS
    def test_local_put_get_round_trip(self, tmp_path, key, payload):
        root = _fresh_root(tmp_path)
        store = ArtifactStore.local(root)
        store.put("ns", key, payload)
        # A second store over the same directory sees the same bytes:
        # the on-disk layout, not instance state, is the truth.
        other = ArtifactStore.local(root)
        assert other.get("ns", key) == payload

    @given(key=KEY, payload=PAYLOAD)
    @settings(max_examples=50, deadline=None)
    def test_namespaces_never_alias(self, key, payload):
        """The no-aliasing acceptance criterion: one key, two
        namespaces, two independent values."""
        store = memory_store()
        store.put("model-cache", key, payload)
        store.put("pages", key, payload + b"x")
        assert store.get("model-cache", key) == payload
        assert store.get("pages", key) == payload + b"x"


class TestKeyDeterminism:
    @given(payload=PAYLOAD)
    @settings(max_examples=50, deadline=None)
    def test_address_is_pure_function_of_content(self, payload):
        store = memory_store()
        first = store.put_object(payload)
        second = store.put_object(payload)
        assert first == second == object_address(payload)

    @given(key=KEY)
    @settings(max_examples=100, deadline=None)
    def test_encode_round_trips(self, key):
        assert decode_key(encode_key(key)) == key

    @given(a=KEY, b=KEY)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_injective(self, a, b):
        if a != b:
            assert encode_key(a) != encode_key(b)

    @given(key=KEY)
    @settings(max_examples=100, deadline=None)
    def test_encoded_segments_never_look_like_tmp_files(self, key):
        for segment in encode_key(key).split("/"):
            assert not (segment.startswith(".")
                        and segment.endswith(".tmp"))

    @pytest.mark.parametrize("bad", ["", "/", "a/", "/a", "a//b"])
    def test_malformed_keys_are_rejected(self, bad):
        with pytest.raises(ValueError):
            encode_key(bad)


class TestLastWriteWins:
    @given(key=KEY, payloads=st.lists(PAYLOAD, min_size=2, max_size=6))
    @LOCAL_SETTINGS
    def test_interleaved_writers_leave_the_last_payload(self, tmp_path,
                                                        key, payloads):
        """Two store instances over one directory — the concurrent-
        writer model on a single host — interleave writes to one key;
        the ref must serve exactly the final write, and every payload
        ever written must still verify in the object layer."""
        root = _fresh_root(tmp_path)
        writers = [ArtifactStore.local(root), ArtifactStore.local(root)]
        addresses = []
        for i, payload in enumerate(payloads):
            addresses.append(writers[i % 2].put("ns", key, payload))
        reader = ArtifactStore.local(root)
        assert reader.get("ns", key) == payloads[-1]
        for address, payload in zip(addresses, payloads):
            assert reader.get_object(address) == payload


class TestQuarantine:
    def _corrupt_object(self, store, namespace, key):
        path = store.object_path(store.resolve(namespace, key))
        data = bytearray(path.read_bytes())
        if data:
            data[0] ^= 0xFF
        else:
            data += b"rot"
        path.write_bytes(bytes(data))

    @given(key=KEY, payload=PAYLOAD)
    @LOCAL_SETTINGS
    def test_corrupt_object_quarantined_then_recomputable(self, tmp_path,
                                                          key, payload):
        root = _fresh_root(tmp_path)
        store = ArtifactStore.local(root)
        store.put("ns", key, payload)
        self._corrupt_object(store, "ns", key)
        with pytest.raises(ArtifactIntegrityError):
            store.get("ns", key)
        # The rotted entry is gone (None = recompute), not half-served.
        assert store.get("ns", key) is None
        assert store.stats()["quarantined"] >= 1
        # The quarantined bytes stay inspectable on disk.
        assert list(root.rglob("*.quarantined"))
        # Recompute: the same content stores and serves cleanly again.
        store.put("ns", key, payload)
        assert store.get("ns", key) == payload

    @given(key=KEY, payload=PAYLOAD)
    @LOCAL_SETTINGS
    def test_scribbled_ref_quarantined_then_recomputable(self, tmp_path,
                                                         key, payload):
        store = ArtifactStore.local(_fresh_root(tmp_path))
        store.put("ns", key, payload)
        store.ref_path("ns", key).write_text("not an address\n")
        with pytest.raises(ArtifactIntegrityError):
            store.get("ns", key)
        assert store.get("ns", key) is None
        store.put("ns", key, payload)
        assert store.get("ns", key) == payload

    def test_bare_object_corruption_raises_object_corruption(self,
                                                             tmp_path):
        store = ArtifactStore.local(tmp_path / "store")
        address = store.put_object(b"payload")
        path = store.object_path(address)
        path.write_bytes(b"Payload")
        with pytest.raises(ObjectCorruption):
            store.get_object(address)
        assert store.get_object(address) is None  # quarantined away


class TestOrphanSweep:
    """Satellite regression: atomic-write temp files must not leak."""

    def test_dead_pid_tmps_swept_on_open(self, tmp_path):
        root = tmp_path / "store"
        sub = root / "refs" / "ns"
        sub.mkdir(parents=True)
        dead_pid = 2 ** 22 + 12345  # beyond the default pid_max
        orphan = sub / f".victim.json.{dead_pid}.tmp"
        orphan.write_bytes(b"half a write")
        top_orphan = root / f".top.json.{dead_pid}.tmp"
        top_orphan.write_bytes(b"more")
        backend = LocalDirBackend(root)
        assert backend.swept_tmps == 2
        assert not orphan.exists()
        assert not top_orphan.exists()

    def test_live_pid_tmps_survive_the_sweep(self, tmp_path):
        import os

        root = tmp_path / "store"
        root.mkdir()
        live = root / f".inflight.json.{os.getpid()}.tmp"
        live.write_bytes(b"another writer, mid-write")
        backend = LocalDirBackend(root)
        assert backend.swept_tmps == 0
        assert live.exists()

    def test_non_tmp_and_unparsable_names_untouched(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        keeper = root / ".nodigits.tmp"
        keeper.write_bytes(b"not ours")
        plain = root / "data.tmp.not"
        plain.write_bytes(b"also not ours")
        LocalDirBackend(root)
        assert keeper.exists()
        assert plain.exists()