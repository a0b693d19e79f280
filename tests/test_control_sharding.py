"""Tests for the sharded control plane: hash ring, router, directory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.control import BootstrapRouter, HashRing, ShardedDirectory
from repro.errors import ConfigurationError
from repro.netaddr import IPv4Address
from tests.oracles import ring_preference
from tests.test_control_directory import DictDirectory


def _ip(value: int) -> IPv4Address:
    return IPv4Address(0x0A000000 + value)  # 10.0.x.y


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        a = HashRing(5)
        b = HashRing(5)
        assert [a.owner(k) for k in range(200)] == [b.owner(k) for k in range(200)]

    def test_every_shard_owns_some_keys(self):
        ring = HashRing(4)
        owners = {ring.owner(k) for k in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.owner(k) for k in range(50)} == {0}

    def test_preference_starts_at_owner_and_is_distinct(self):
        ring = HashRing(4)
        for key in range(100):
            chain = ring.preference(key)
            assert chain[0] == ring.owner(key)
            assert sorted(chain) == [0, 1, 2, 3]

    def test_preference_count_truncates(self):
        ring = HashRing(4)
        assert len(ring.preference(7, count=2)) == 2

    @pytest.mark.parametrize("count", [0, -1, -4])
    def test_preference_count_below_one_rejected(self, count):
        with pytest.raises(ConfigurationError):
            HashRing(4).preference(7, count=count)

    @settings(max_examples=60, deadline=None)
    @given(
        shards=st.integers(1, 8),
        virtual_nodes=st.integers(1, 24),
        keys=st.lists(
            st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=12), st.booleans()),
            min_size=1,
            max_size=30,
        ),
    )
    def test_memoized_chain_matches_ring_walk(self, shards, virtual_nodes, keys):
        ring = HashRing(shards, virtual_nodes)
        for _ in range(2):  # first pass computes, second reads the memo
            for key in keys:
                walk = ring_preference(ring, key)
                assert ring.chain(key) == tuple(walk)
                assert ring.owner(key) == walk[0]
                assert ring.preference(key) == walk
                for count in range(1, shards + 2):
                    assert ring.preference(key, count) == ring_preference(ring, key, count)

    def test_each_key_chain_is_walked_once(self):
        ring = HashRing(3)
        with obs.observe() as run:
            for _ in range(5):
                for key in range(10):
                    ring.owner(key)
                    ring.preference(key, 2)
            ring.chain("7")  # formats like 7: the same ring position
            assert run.registry.counter_value("control.ring.chains") == 10

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing(0)
        with pytest.raises(ConfigurationError):
            HashRing(2, virtual_nodes=0)


class TestBootstrapRouter:
    def test_address_count_must_match_shards(self):
        with pytest.raises(ConfigurationError):
            BootstrapRouter(HashRing(3), ["a:1", "b:2"], lambda ip: 0)

    def test_single_router_always_returns_its_address(self):
        router = BootstrapRouter.single("boot:9")
        assert router.shard_count == 1
        assert router.addrs_for(_ip(1)) == ["boot:9"]
        assert router.owner_addr(_ip(1)) == "boot:9"

    def test_addrs_for_walks_preference_owner_first(self):
        ring = HashRing(3)
        addrs = ["s0:1", "s1:1", "s2:1"]
        router = BootstrapRouter(ring, addrs, lambda ip: ip.value % 7)
        for value in range(30):
            ip = _ip(value)
            chain = router.addrs_for(ip)
            assert chain[0] == router.owner_addr(ip)
            assert sorted(chain) == sorted(addrs)


def _directory(shards=3, ttl_ms=100.0):
    ring = HashRing(shards)
    return ShardedDirectory(ring, lambda ip: ip.value % 11, ttl_ms=ttl_ms)


def _owner(ip, shards=3):
    return HashRing(shards).owner(ip.value % 11)


class TestShardedDirectory:
    def test_join_then_resolve_hits_owner_first_try(self):
        directory = _directory()
        ip = _ip(1)
        shard = directory.join(ip, 0.0, "host-1:7000")
        assert shard == _owner(ip)
        resolved = directory.resolve(ip, 1.0)
        assert resolved == (shard, 1, "host-1:7000")

    def test_rejoin_is_idempotent(self):
        directory = _directory()
        ip = _ip(2)
        for t in range(5):
            directory.join(ip, float(t))
        assert directory.total() == 1
        assert directory.peak_total == 1

    def test_leave_removes_and_miss_is_well_formed(self):
        directory = _directory()
        ip = _ip(3)
        directory.join(ip, 0.0)
        assert directory.leave(ip, 1.0) == 1
        assert directory.resolve(ip, 2.0) is None
        assert directory.resolve_misses == 1

    def test_ttl_sweep_expires_stale_leases(self):
        directory = _directory(ttl_ms=100.0)
        directory.join(_ip(4), 0.0)
        directory.join(_ip(5), 80.0)
        assert directory.sweep(150.0) == 1  # only the t=0 lease expired
        assert directory.total() == 1

    def test_down_shard_fails_over_to_ring_successor(self):
        directory = _directory()
        ip = _ip(6)
        owner = _owner(ip)
        directory.set_shard_down(owner, 10.0)
        shard = directory.join(ip, 11.0)
        assert shard is not None and shard != owner
        assert directory.failover_joins == 1
        # Resolve walks past the dead owner to the successor's copy.
        assert directory.resolve(ip, 12.0) is not None

    def test_all_shards_down_is_a_failed_join(self):
        directory = _directory(shards=2)
        directory.set_shard_down(0, 0.0)
        directory.set_shard_down(1, 0.0)
        assert directory.join(_ip(7), 1.0) is None
        assert directory.failed_joins == 1

    def test_recovered_shard_restarts_empty(self):
        directory = _directory()
        ip = _ip(8)
        owner = _owner(ip)
        directory.join(ip, 0.0)
        directory.set_shard_down(owner, 1.0)
        directory.set_shard_up(owner, 2.0)
        assert directory.sizes()[owner] == 0
        # Soft state: the next refresh re-registers on the owner.
        assert directory.join(ip, 3.0) == owner

    def test_refresh_renews_the_lease(self):
        directory = _directory(ttl_ms=100.0)
        ip = _ip(1)
        shard = directory.join(ip, 0.0, "old:1")
        assert directory.join(ip, 50.0, "new:2") == shard
        assert directory.total() == 1 and directory.refreshes == 1
        assert directory.sweep(120.0) == 0  # the renewed lease outlives t=100
        assert directory.resolve(ip, 120.0) == (shard, 1, "new:2")
        assert directory.resolve(ip, 150.0) is None  # it expires at 50 + 100
        assert directory.sweep(150.0) == 1
        assert directory.total() == 0

    @pytest.mark.parametrize("ttl_ms", [float("nan"), 0.0, -1.0, float("-inf")])
    def test_ttl_must_be_positive(self, ttl_ms):
        # A NaN TTL compared false both ways: a joined lease never
        # resolved and was never swept.
        with pytest.raises(ConfigurationError, match="ttl_ms"):
            _directory(ttl_ms=ttl_ms)

    def test_unbounded_ttl_never_expires(self):
        directory = _directory(ttl_ms=float("inf"))
        ip = _ip(2)
        shard = directory.join(ip, 0.0, "wire:1")
        assert directory.sweep(1e18) == 0
        assert directory.resolve(ip, 1e18) == (shard, 1, "wire:1")

    def test_operation_log_is_byte_stable(self):
        def run():
            directory = _directory()
            for value in range(20):
                directory.join(_ip(value), float(value))
            directory.set_shard_down(0, 30.0)
            directory.join(_ip(21), 31.0)
            directory.set_shard_up(0, 40.0)
            directory.leave(_ip(3), 41.0)
            directory.sweep(500.0)
            return directory.log

        assert run() == run()


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "join", "leave", "resolve", "sweep", "down", "up"]),
        st.integers(0, 11),  # host (or shard, mod 3)
        st.floats(0.0, 60.0),  # time step; the TTL is 100 ms
    ),
    max_size=80,
)


class TestInPlaceRefresh:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_matches_fresh_entry_model(self, ops):
        # The model stores a fresh (addr, expires_ms) entry on every join;
        # the directory renews a held lease in place.
        directory = ShardedDirectory(HashRing(3), lambda ip: ip.value % 5, ttl_ms=100.0)
        model = DictDirectory()
        now = 0.0
        for kind, target, step in ops:
            now += step
            ip = _ip(target)
            results = []
            for d in (directory, model):
                if kind == "join":
                    results.append(d.join(ip, now))
                elif kind == "leave":
                    results.append(d.leave(ip, now))
                elif kind == "resolve":
                    results.append(d.resolve(ip, now))
                elif kind == "sweep":
                    results.append(d.sweep(now))
                elif kind == "down":
                    results.append(d.set_shard_down(target % 3, now))
                else:
                    results.append(d.set_shard_up(target % 3, now))
            assert results[0] == results[1]
            assert directory.sizes() == model.sizes()
            for value in range(12):
                assert directory.resolve(_ip(value), now) == model.resolve(_ip(value), now)
            assert directory.peak_total == model.counts["peak_total"]
        assert "\n".join(directory.log).encode() == "\n".join(model.log).encode()
        assert directory.stats() == model.stats()
