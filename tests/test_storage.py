"""Tests for BGP dump files, matrix archives, and record CSV."""

import numpy as np
import pytest

from repro.errors import ArtifactError, BGPParseError, ReproError
from repro.evaluation.metrics import MethodRecord, load_records_csv, save_records_csv
from repro.scenario import tiny_scenario
from repro.storage import (
    load_matrices,
    read_rib_file,
    read_update_file,
    save_matrices,
    write_rib_file,
    write_update_file,
)
from repro.topology import allocate_prefixes, generate_rib_entries, generate_topology, generate_update_stream, TopologyConfig


@pytest.fixture(scope="module")
def world():
    topo = generate_topology(TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=25, seed=2))
    allocation = allocate_prefixes(topo, seed=2)
    entries = generate_rib_entries(topo, allocation, vantage_count=4, seed=2)
    updates = generate_update_stream(topo, allocation, churn_fraction=0.2, vantage_count=4, seed=2)
    return entries, updates


class TestDumpFiles:
    def test_rib_round_trip(self, tmp_path, world):
        entries, _ = world
        path = tmp_path / "rib.dump"
        count = write_rib_file(path, entries)
        assert count == len(entries)
        assert read_rib_file(path) == entries

    def test_rib_file_has_header_comment(self, tmp_path, world):
        entries, _ = world
        path = tmp_path / "rib.dump"
        write_rib_file(path, entries)
        assert path.read_text().startswith("#")

    def test_update_round_trip(self, tmp_path, world):
        _, updates = world
        path = tmp_path / "updates.log"
        count = write_update_file(path, updates)
        assert count == len(updates)
        assert read_update_file(path) == updates

    def test_corrupt_rib_file_rejected(self, tmp_path):
        path = tmp_path / "bad.dump"
        path.write_text("RIB|not|valid\n")
        with pytest.raises(BGPParseError):
            read_rib_file(path)


class TestMatrixArchive:
    def test_round_trip(self, tmp_path):
        scenario = tiny_scenario(seed=2)
        matrices = scenario.matrices
        path = tmp_path / "matrices.npz"
        save_matrices(path, matrices)
        loaded = load_matrices(path)
        assert loaded.prefixes == matrices.prefixes
        assert np.array_equal(loaded.asn_of, matrices.asn_of)
        assert np.array_equal(loaded.sizes, matrices.sizes)
        assert np.array_equal(loaded.rtt_ms, matrices.rtt_ms)
        assert np.array_equal(loaded.loss, matrices.loss)
        assert np.array_equal(loaded.as_hops, matrices.as_hops)
        assert loaded.index_of == matrices.index_of

    def test_loaded_matrices_usable(self, tmp_path):
        scenario = tiny_scenario(seed=2)
        path = tmp_path / "m.npz"
        save_matrices(path, scenario.matrices)
        loaded = load_matrices(path)
        assert loaded.one_hop_rtt(0, 1, 2) == scenario.matrices.one_hop_rtt(0, 1, 2)

    def test_version_check(self, tmp_path):
        scenario = tiny_scenario(seed=2)
        path = tmp_path / "m.npz"
        save_matrices(path, scenario.matrices)
        with np.load(path) as archive:
            data = {k: archive[k] for k in archive.files}
        data["version"] = np.array([99])
        np.savez(path, **data)
        with pytest.raises(ReproError):
            load_matrices(path)


def _rewrite(path, **changes):
    """Re-save the archive at ``path`` with arrays replaced (``None``
    drops one)."""
    with np.load(path) as archive:
        data = {k: archive[k] for k in archive.files}
    for name, value in changes.items():
        if value is None:
            del data[name]
        else:
            data[name] = value
    np.savez(path, **data)


def _with_cell(value):
    def mutate(path):
        with np.load(path) as archive:
            rtt = archive["rtt_ms"].copy()
        rtt[1, 2] = value
        _rewrite(path, rtt_ms=rtt)

    return mutate


def _trim_rtt_row(path):
    with np.load(path) as archive:
        rtt = archive["rtt_ms"][:-1].copy()
    _rewrite(path, rtt_ms=rtt)


def _bare_npy(path):
    with path.open("wb") as handle:
        np.save(handle, np.zeros(3))


def _flip_middle_byte(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestMatrixArchiveValidation:
    """A damaged or inconsistent archive raises ArtifactError naming the
    file and the array — never numpy's ValueError / KeyError, and never
    NaN or negative RTTs, which OPT's pruned fold cannot score."""

    @pytest.fixture(scope="class")
    def matrices(self):
        return tiny_scenario(seed=2).matrices

    @pytest.mark.parametrize(
        "mutate, array",
        [
            (lambda path: path.write_text("not an archive"), None),
            (_bare_npy, None),
            (_flip_middle_byte, None),
            (lambda path: _rewrite(path, loss=None), "loss"),
            (lambda path: _rewrite(path, version=np.array([], dtype=np.int64)), "version"),
            (lambda path: _rewrite(path, prefixes=np.array(["10.0.0.0/33"])), "prefixes"),
            (_with_cell(np.nan), "rtt_ms"),
            (_with_cell(-1.0), "rtt_ms"),
            (_trim_rtt_row, "rtt_ms"),
            (lambda path: _rewrite(path, sizes=np.zeros(3, dtype=np.int64)), "sizes"),
            (lambda path: _rewrite(path, as_hops=np.zeros((2, 2))), "as_hops"),
        ],
        ids=[
            "text-file",
            "bare-npy",
            "corrupt-member",
            "missing-array",
            "empty-version",
            "bad-prefix",
            "nan-rtt",
            "negative-rtt",
            "rtt-shape",
            "sizes-shape",
            "hops-dtype",
        ],
    )
    def test_rejects(self, tmp_path, matrices, mutate, array):
        path = tmp_path / "m.npz"
        save_matrices(path, matrices)
        mutate(path)
        with pytest.raises(ArtifactError) as info:
            load_matrices(path)
        assert str(path) in str(info.value)
        if array is not None:
            assert repr(array) in str(info.value)

    def test_inf_rtt_cells_load(self, tmp_path, matrices):
        path = tmp_path / "m.npz"
        save_matrices(path, matrices)
        _with_cell(np.inf)(path)
        assert load_matrices(path).rtt_ms[1, 2] == np.inf


def sample_records():
    return [
        MethodRecord("ASAP", 0, 1200, 210.5, 3.9, 2, one_hop_quality_paths=800),
        MethodRecord("DEDI", 0, 8, 250.0, 3.8, 160, one_hop_quality_paths=8),
        MethodRecord("RAND", 1, 0, None, None, 400, one_hop_quality_paths=0),
    ]


class TestRecordFiles:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records = sample_records()
        assert save_records_csv(path, records) == 3
        assert load_records_csv(path) == records

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,session_id\nASAP,1\n")
        with pytest.raises(ReproError):
            load_records_csv(path)


class TestASGraphFile:
    def _graph(self):
        from repro.bgp import ASGraph

        g = ASGraph()
        g.add_peer(1, 2)
        g.add_provider_customer(1, 3)
        g.add_provider_customer(2, 4)
        g.add_sibling(3, 5)
        g.add_as(9)  # isolated AS must survive the round trip
        return g

    def test_round_trip(self, tmp_path):
        from repro.storage.dumps import read_asgraph_file, write_asgraph_file
        from repro.bgp.asgraph import Relationship

        graph = self._graph()
        path = tmp_path / "asgraph.txt"
        count = write_asgraph_file(path, graph)
        assert count == graph.edge_count()
        loaded = read_asgraph_file(path)
        assert loaded.ases() == graph.ases()
        assert loaded.relationship(1, 2) is Relationship.PEER_PEER
        assert loaded.is_provider_of(1, 3)
        assert loaded.relationship(3, 5) is Relationship.SIBLING_SIBLING
        assert 9 in loaded

    def test_scenario_graph_round_trip(self, tmp_path):
        from repro.storage.dumps import read_asgraph_file, write_asgraph_file

        scenario = tiny_scenario(seed=2)
        path = tmp_path / "inferred.txt"
        write_asgraph_file(path, scenario.inferred_graph)
        loaded = read_asgraph_file(path)
        assert loaded.edge_count() == scenario.inferred_graph.edge_count()
        assert loaded.ases() == scenario.inferred_graph.ases()

    def test_malformed_rejected(self, tmp_path):
        from repro.errors import BGPParseError
        from repro.storage.dumps import read_asgraph_file

        path = tmp_path / "bad.txt"
        path.write_text("P2C|1\n")
        with pytest.raises(BGPParseError):
            read_asgraph_file(path)
        path.write_text("P2C|one|two\n")
        with pytest.raises(BGPParseError):
            read_asgraph_file(path)
