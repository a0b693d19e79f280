"""The one registration store, held to executable models.

- Hypothesis-generated programs of join / bulk refresh / leave /
  resolve / sweep / shard-down / shard-up run against
  :class:`ShardedDirectory` and a reference interpreter over plain
  ``{ip: (addr, expires_ms)}`` dicts, one per shard, that keeps its own
  operation log and counters.  A bulk refresh (``refresh_many``) is an
  ordered subset of hosts, and the model runs it as one ``join`` per
  host.
- The wire :class:`BootstrapServer` (whose registrations live in a
  one-shard directory) and a bare directory answer the same
  registration edge cases alike.
"""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.control import DirectoryStats, HashRing, ShardedDirectory
from repro.net.codec import ROLE_HOST, Join, Leave, Resolve
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.netaddr import IPv4Address
from repro.service import ServiceWorld
from repro.service.bootstrap import BootstrapServer
from repro.service.surrogate import SurrogateServer
from tests.oracles import ring_preference

SHARDS, TTL_MS, HOSTS = 3, 100.0, 12


def _ip(value: int) -> IPv4Address:
    return IPv4Address(0x0A000000 + value)  # 10.0.x.y


def _cluster_of(ip: IPv4Address) -> int:
    return ip.value % 5


class DictDirectory:
    """Reference interpreter: shard ``s`` is ``{ip: (addr, expires_ms)}``;
    an operation walks the key's ring preference, skipping down shards,
    and logs what it changed as ``json.dumps`` lines."""

    def __init__(self) -> None:
        self.ring = HashRing(SHARDS)
        self.shards = [{} for _ in range(SHARDS)]
        self.down = set()
        self.log = []
        self.counts = dict.fromkeys(
            ["joins", "failover_joins", "failed_joins", "leaves", "resolves",
             "resolve_misses", "swept", "refreshes", "removals", "peak_total"], 0
        )

    def _chain(self, ip):
        return ring_preference(self.ring, _cluster_of(ip))

    def _live_chain(self, ip):
        return [shard for shard in self._chain(ip) if shard not in self.down]

    def _log(self, at_ms, kind, **fields):
        doc = dict(at_ms=round(at_ms, 3), kind=kind, **fields)
        self.log.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    def join(self, ip, at_ms, addr=""):
        self.counts["joins"] += 1
        owner = self._chain(ip)[0]
        for shard in self._live_chain(ip):
            self.counts["refreshes"] += ip in self.shards[shard]
            self.shards[shard][ip] = (addr, at_ms + TTL_MS)
            self.counts["peak_total"] = max(self.counts["peak_total"], self.total())
            if shard != owner:
                self.counts["failover_joins"] += 1
                self._log(at_ms, "join-failover", ip=str(ip), owner=owner, shard=shard)
            return shard
        self.counts["failed_joins"] += 1
        self._log(at_ms, "join-failed", ip=str(ip), owner=owner)
        return None

    def leave(self, ip, at_ms):
        self.counts["leaves"] += 1
        chain = self._live_chain(ip)
        removed = sum(self.shards[shard].pop(ip, None) is not None for shard in chain)
        self.counts["removals"] += removed
        self._log(at_ms, "leave", ip=str(ip), removed=removed)
        return removed

    def resolve(self, ip, at_ms):
        self.counts["resolves"] += 1
        for attempts, shard in enumerate(self._live_chain(ip), 1):
            addr, expires_ms = self.shards[shard].get(ip, ("", at_ms))
            if expires_ms > at_ms:
                return shard, attempts, addr
        self.counts["resolve_misses"] += 1
        return None

    def sweep(self, at_ms):
        dropped = 0
        for shard, registry in enumerate(self.shards):
            if shard not in self.down:
                stale = [ip for ip, (_, expires_ms) in registry.items() if expires_ms <= at_ms]
                for ip in stale:
                    del registry[ip]
                dropped += len(stale)
        if dropped:
            self.counts["swept"] += dropped
            self._log(at_ms, "sweep", dropped=dropped)
        return dropped

    def set_shard_down(self, shard, at_ms):
        if shard not in self.down:
            self.down.add(shard)
            self._log(at_ms, "shard-down", shard=shard, lost=len(self.shards[shard]))

    def set_shard_up(self, shard, at_ms):
        if shard in self.down:
            self.down.discard(shard)
            self.shards[shard].clear()
            self._log(at_ms, "shard-up", shard=shard)

    def total(self):
        return sum(len(registry) for registry in self.shards)

    def sizes(self):
        return tuple(len(registry) for registry in self.shards)

    def stats(self):
        fields = DirectoryStats.__dataclass_fields__
        return DirectoryStats(**{name: self.counts[name] for name in fields})


_PROGRAMS = st.lists(
    st.tuples(
        st.sampled_from(
            ["join", "join", "refresh", "refresh", "leave", "resolve", "sweep", "down", "up"]
        ),
        st.integers(0, HOSTS - 1),  # host (or shard, mod SHARDS)
        st.sampled_from(["", "a:1", "b:2"]),  # advertised address
        st.floats(0.0, 60.0),  # time step; the TTL is 100 ms
        # A refresh's hosts: an ordered subset (every host, at most once).
        st.lists(st.integers(0, HOSTS - 1), unique=True, max_size=HOSTS),
    ),
    max_size=80,
)

_EVERY_HOST = list(range(HOSTS))


class TestAgainstDictModel:
    @settings(max_examples=150, deadline=None)
    @given(program=_PROGRAMS)
    # A bulk insert into an empty directory; a refresh through a shard
    # outage (failover lines) and after the recovery (every lease the
    # owner lost moves home, the successor's copy stays until swept);
    # every shard down (failed joins).
    @example(program=[("refresh", 0, "", 0.0, _EVERY_HOST)])
    @example(program=[
        ("refresh", 0, "", 0.0, _EVERY_HOST),
        ("down", 1, "", 1.0, []),
        ("refresh", 0, "", 10.0, _EVERY_HOST[::-1]),
        ("up", 1, "", 20.0, []),
        ("refresh", 0, "", 30.0, _EVERY_HOST),
        ("sweep", 0, "", 80.0, []),
    ])
    @example(program=[
        ("down", 0, "", 0.0, []),
        ("down", 1, "", 0.0, []),
        ("down", 2, "", 0.0, []),
        ("refresh", 0, "", 1.0, _EVERY_HOST),
        ("up", 1, "", 2.0, []),
        ("refresh", 0, "", 3.0, [3, 1, 4]),
    ])
    def test_directory_matches_dict_model(self, program):
        directory = ShardedDirectory(HashRing(SHARDS), _cluster_of, ttl_ms=TTL_MS)
        model = DictDirectory()
        joined, now = set(), 0.0
        with obs.observe() as run:
            for kind, target, addr, step, subset in program:
                now += step
                ip = _ip(target)
                if kind == "join":
                    assert directory.join(ip, now, addr) == model.join(ip, now, addr)
                    joined.add(ip)
                    grown = directory.total()
                    assert directory.join(ip, now, addr) == model.join(ip, now, addr)
                    assert directory.total() == grown  # a repeated join never grows it
                elif kind == "refresh":
                    ips = [_ip(value) for value in subset]
                    shards = directory.refresh_many(ips, now).tolist()
                    assert [None if shard < 0 else shard for shard in shards] == [
                        model.join(host, now) for host in ips
                    ]
                    joined.update(ips)
                elif kind == "leave":
                    assert directory.leave(ip, now) == model.leave(ip, now)
                elif kind == "resolve":
                    assert directory.resolve(ip, now) == model.resolve(ip, now)
                elif kind == "sweep":
                    assert directory.sweep(now) == model.sweep(now)
                elif kind == "down":
                    directory.set_shard_down(target % SHARDS, now)
                    model.set_shard_down(target % SHARDS, now)
                else:
                    directory.set_shard_up(target % SHARDS, now)
                    model.set_shard_up(target % SHARDS, now)
                # Resolve hits exactly the unexpired leases on a live shard
                # of the chain, for every host, after every operation.
                for value in range(HOSTS):
                    assert directory.resolve(_ip(value), now) == model.resolve(_ip(value), now)
                assert directory.sizes() == model.sizes()
                # A shard holds each host at most once; only failover copies
                # (owner down, then back) put one host on two shards.
                assert all(size <= len(joined) for size in directory.sizes())
                assert directory.peak_total == model.counts["peak_total"]
                assert (directory.refreshes, directory.removals) == (
                    model.counts["refreshes"], model.counts["removals"]
                )
                assert directory.stats() == model.stats()
                assert "\n".join(directory.log).encode() == "\n".join(model.log).encode()
            for name in ("failover_joins", "failed_joins"):
                assert run.registry.counter_value(f"control.directory.{name}") == (
                    model.counts[name]
                )

    def test_refresh_takes_distinct_hosts(self):
        directory = ShardedDirectory(HashRing(SHARDS), _cluster_of, ttl_ms=TTL_MS)
        with pytest.raises(ValueError):
            directory.refresh_many([_ip(1), _ip(2), _ip(1)], 0.0)


STRANGER = IPv4Address(0xDEADBEEF)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return ServiceWorld.from_scale("tiny", 0, cache_dir=str(tmp_path_factory.mktemp("cache")))


def _wire(world, host):
    """Through a loopback ``BootstrapServer`` with one surrogate daemon."""
    hub = LoopbackHub(latency_ms_fn=lambda src, dst: 1.0)

    async def main():
        bootstrap = BootstrapServer(world, LoopbackTransport(hub, "boot"))
        await bootstrap.start()
        cluster = world.cluster_of_ip(host.ip)
        surrogate = SurrogateServer(
            world, cluster, LoopbackTransport(hub, "surr"), bootstrap.address
        )
        await surrogate.start()
        await surrogate.register()
        client = LoopbackTransport(hub, "client")
        await client.start()
        join = Join(ip=host.ip, role=ROLE_HOST, cluster=-1, wire_addr="client")
        sizes = []
        for _ in range(2):
            await client.request("boot", join, timeout_ms=1_000.0)
            sizes.append(bootstrap.registry.total())
        await client.send("boot", Leave(ip=STRANGER))
        await client.sleep_ms(10.0)
        sizes.append(bootstrap.registry.total())
        answers = [
            await client.request("boot", Resolve(ip=ip), timeout_ms=1_000.0)
            for ip in (STRANGER, host.ip)
        ]
        return sizes, [(answer.found, answer.addr) for answer in answers]

    return asyncio.run(hub.run(main()))


def _bare(world, host):
    """Straight into a one-shard ``ShardedDirectory``."""
    directory = ShardedDirectory(HashRing(1), lambda ip: 0)
    sizes = []
    for _ in range(2):
        directory.join(host.ip, 0.0, "client")
        sizes.append(directory.total())
    assert directory.leave(STRANGER, 0.0) == 0
    sizes.append(directory.total())
    hits = [directory.resolve(ip, 0.0) for ip in (STRANGER, host.ip)]
    return sizes, [(0, "") if hit is None else (1, hit[2]) for hit in hits]


@pytest.mark.parametrize("run", [_wire, _bare], ids=["wire", "directory"])
def test_duplicate_join_unknown_leave_and_resolve_miss(run, world):
    cluster = world.populated_clusters()[0]
    host = next(h for h in world.hosts_in_cluster(cluster) if h.ip != world.surrogate_ip(cluster))
    sizes, answers = run(world, host)
    assert sizes[0] == sizes[1] == sizes[2]  # neither a rejoin nor a stray leave changes it
    assert answers == [(0, ""), (1, "client")]


def test_strangers_are_never_placed(world):
    """Resolves and leaves of addresses that never joined — which the
    wire bootstrap answers from any peer — give them no row."""
    hub = LoopbackHub(latency_ms_fn=lambda src, dst: 1.0)

    async def main():
        bootstrap = BootstrapServer(world, LoopbackTransport(hub, "boot"))
        await bootstrap.start()
        client = LoopbackTransport(hub, "client")
        await client.start()
        for value in range(1_000):
            stranger = IPv4Address(0xC0000000 + value)
            answer = await client.request("boot", Resolve(ip=stranger), timeout_ms=1_000.0)
            assert not answer.found
        await client.send("boot", Leave(ip=STRANGER))
        await client.sleep_ms(10.0)
        return bootstrap.registry

    registry = asyncio.run(hub.run(main()))
    assert len(registry._rows) == 0
    assert registry.resolves == registry.resolve_misses == 1_000 and registry.leaves == 1
    # The directory itself, at the full 10,000.
    directory = ShardedDirectory(HashRing(SHARDS), _cluster_of)
    directory.join(_ip(1), 0.0, "a")
    for value in range(10_000):
        assert directory.resolve(_ip(100 + value), 1.0) is None
        assert directory.leave(_ip(100 + value), 1.0) == 0
    assert len(directory._rows) == len(directory._value) == 1
    assert directory.resolve(_ip(1), 1.0) == (ring_preference(directory._ring, 1)[0], 1, "a")
