"""Filesystem fault shim vs the durable-IO layer.

Proves the durability claims artifact by artifact: atomic writes leave
no partial state behind under any injected failure, silent bit-rot is
caught by content checksums (model store), CRCs (journal) or
content-addressing (snapshot pages), and corrupt cache entries are
quarantined and recomputed — never served.
"""

import json
import os

import pytest

from repro import chaos
from repro.chaos import FaultInjector, FaultPlan
from repro.chaos.fsshim import _flip_bit
from repro.errors import store
from repro.errors.da import DaModel
from repro.errors.pipeline import ModelCache
from repro.uarch.snapshot import PageCorruption, PageStore
from repro.utils import durable


@pytest.fixture
def clean_hook():
    """Guarantee the process-global hook is restored after each test."""
    yield
    chaos.uninstall()


def _install(fs_rates, seed=5, incarnation=0):
    return chaos.install(FaultPlan(seed=seed, fs_rates=fs_rates),
                         incarnation=incarnation)


class TestFlipBit:
    def test_deterministic_single_bit(self):
        data = bytes(range(64))
        rotted = _flip_bit(data, "key")
        assert rotted == _flip_bit(data, "key")
        diff = [a ^ b for a, b in zip(data, rotted)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_empty_data_untouched(self):
        assert _flip_bit(b"", "key") == b""


class TestAtomicWriteBytes:
    def test_plain_write_and_replace(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b"old")
        durable.atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [path]  # no temp droppings

    @pytest.mark.parametrize("kind", ["eio", "enospc", "torn"])
    def test_failed_write_leaves_destination_untouched(self, tmp_path,
                                                       clean_hook, kind):
        _install({"store": {kind: 1.0}})
        path = tmp_path / "a.json"
        path.write_bytes(b"old artifact, complete")
        with pytest.raises(OSError):
            durable.atomic_write_bytes(path, b"half of this vanishes",
                                       target="store")
        assert path.read_bytes() == b"old artifact, complete"
        assert list(tmp_path.iterdir()) == [path]  # temp cleaned up

    def test_fault_fires_once_then_retry_succeeds(self, tmp_path,
                                                  clean_hook):
        injector = _install({"store": {"eio": 1.0}})
        path = tmp_path / "a.json"
        with pytest.raises(OSError):
            durable.atomic_write_bytes(path, b"payload", target="store")
        durable.atomic_write_bytes(path, b"payload", target="store")
        assert path.read_bytes() == b"payload"
        assert injector.stats["fs.store.eio"] == 1

    def test_untargeted_writes_unaffected(self, tmp_path, clean_hook):
        _install({"journal": {"eio": 1.0}})
        path = tmp_path / "a.json"
        durable.atomic_write_bytes(path, b"payload", target="store")
        assert path.read_bytes() == b"payload"


class TestStoreBitrotDetection:
    def test_bitrot_caught_by_checksum_on_load(self, tmp_path, clean_hook):
        """A silently corrupted artifact write must fail loudly at load
        time — the checksum disowns the payload."""
        model = DaModel({"VR15": 1e-3, "VR20": 1e-2}, injection_window=64)
        _install({"store": {"bitrot": 1.0}})
        path = store.save_da(model, tmp_path / "da.json")
        chaos.uninstall()
        with pytest.raises(Exception):
            # Either the flipped bit broke the JSON, or — the insidious
            # case — it still parses and the checksum catches it.
            store.load_any(path)

    def test_fault_free_round_trip_checksum_ok(self, tmp_path):
        model = DaModel({"VR15": 1e-3}, injection_window=64)
        path = store.save_da(model, tmp_path / "da.json")
        assert store.load_any(path).fixed_error_ratios == {"VR15": 1e-3}


class TestModelCacheQuarantine:
    def _entry(self, cache, kind="DA", key="ab" * 16):
        model = DaModel({"VR15": 1e-3}, injection_window=64)
        cache.store(kind, key, model)
        return cache.path(kind, key)

    def test_corrupt_entry_quarantined_never_served(self, tmp_path):
        cache = ModelCache(tmp_path)
        path = self._entry(cache)
        # Rot the payload while keeping the JSON well-formed.
        data = json.loads(path.read_text())
        data["payload"]["fixed_error_ratios"]["VR15"] = 0.5
        path.write_text(json.dumps(data))
        assert cache.load("DA", "ab" * 16) is None
        assert cache.stats()["invalid"] == 1
        assert cache.stats()["quarantined"] == 1
        assert not path.exists()
        quarantined = path.with_name(path.name + ".quarantined")
        assert quarantined.exists()  # kept inspectable
        # The slot is reusable: a rewrite serves cleanly again.
        self._entry(cache)
        assert cache.load("DA", "ab" * 16) is not None

    def test_torn_entry_quarantined(self, tmp_path):
        cache = ModelCache(tmp_path)
        path = self._entry(cache)
        path.write_text(path.read_text()[:40])  # torn JSON
        assert cache.load("DA", "ab" * 16) is None
        assert cache.stats()["quarantined"] == 1

    def test_failed_store_degrades_to_uncached(self, tmp_path, clean_hook):
        _install({"cache": {"enospc": 1.0}})
        cache = ModelCache(tmp_path)
        model = DaModel({"VR15": 1e-3}, injection_window=64)
        assert cache.store("DA", "cd" * 16, model) is None
        assert cache.stats()["store_errors"] == 1
        assert not cache.path("DA", "cd" * 16).exists()


class TestPageStoreVerification:
    def test_missing_page_raises(self):
        pages = PageStore()
        keys = pages.put(b"x" * 10_000)
        pages._pages.pop(keys[1])
        with pytest.raises(PageCorruption, match="missing"):
            pages.get(keys)

    def test_injected_page_rot_detected(self, clean_hook):
        pages = PageStore()
        keys = pages.put(b"y" * 10_000)
        _install({"page": {"bitrot": 1.0}})
        with pytest.raises(PageCorruption, match="verification"):
            pages.get(keys)

    def test_fault_free_get_verifies_clean(self, clean_hook):
        pages = PageStore()
        data = os.urandom(10_000)
        keys = pages.put(data)
        assert pages.get(keys) == data


class TestInstallUninstall:
    def test_install_replaces_hook_uninstall_restores(self):
        assert chaos.active() is None
        injector = chaos.install(FaultPlan(seed=1))
        try:
            assert chaos.active() is injector
            assert durable.get_fault_hook() is injector
        finally:
            chaos.uninstall()
        assert chaos.active() is None
        assert isinstance(durable.get_fault_hook(), durable.FaultHook)
        assert not isinstance(durable.get_fault_hook(), FaultInjector)

    def test_install_from_env(self, tmp_path):
        plan = FaultPlan(seed=4, worker_kill_rate=0.1)
        environ = {
            chaos.ENV_PLAN: json.dumps(plan.to_dict(), sort_keys=True),
            chaos.ENV_INCARNATION: "2",
            chaos.ENV_STATS: str(tmp_path / "stats.jsonl"),
        }
        injector = chaos.install_from_env(environ)
        try:
            assert injector.plan == plan
            assert injector.incarnation == 2
        finally:
            chaos.uninstall()

    def test_install_from_env_absent_is_noop(self):
        assert chaos.install_from_env({}) is None
        assert chaos.active() is None

    def test_faults_disable_past_fault_incarnations(self, tmp_path):
        plan = FaultPlan(seed=1, fault_incarnations=2,
                         fs_rates={"store": {"eio": 1.0}})
        injector = chaos.install(plan, incarnation=2)
        try:
            path = tmp_path / "a.json"
            durable.atomic_write_bytes(path, b"calm", target="store")
            assert path.read_bytes() == b"calm"
            assert not injector.faults_active
        finally:
            chaos.uninstall()
