"""The closed-loop auto-tuner (ISSUE 9): tuning-table mechanics, the
dispatch-time consult and its gates, the committed tables themselves,
and the knob-validation / profile-registry bugfix satellites."""

import json
import os

import pytest

from repro.cuda import DeviceBuffer
from repro.hardware import cluster_a, cluster_b
from repro.mpi import MPIRuntime
from repro.mpi.collectives import (
    hierarchical_reduce, reduce_chain, tuned_reduce,
)
from repro.mpi.collectives.base import validate_knob
from repro.mpi.profiles import (
    MV2GDR, get_profile, is_stock_profile, register_profile,
)
from repro.nccl import nccl_allreduce, nccl_bcast
from repro.sim import Simulator
from repro.tune import tables
from repro.tune.search import _merge_bands, check_tables


def runtime_for(P, profile="mv2gdr", kind="a"):
    sim = Simulator(seed=0)
    if kind == "a":
        cluster = cluster_a(sim, n_nodes=max(1, (P + 15) // 16))
    else:
        cluster = cluster_b(sim, n_nodes=max(2, (P + 1) // 2))
    rt = MPIRuntime(cluster, profile)
    return rt, rt.world(P)


def reduce_latency(rt, comm, nbytes):
    def program(ctx):
        sendbuf = DeviceBuffer(ctx.gpu, nbytes)
        recvbuf = DeviceBuffer(ctx.gpu, nbytes) if ctx.rank == 0 else None
        yield from tuned_reduce(ctx, sendbuf, recvbuf, 0)
        return ctx.sim.now
    return max(rt.execute(comm, program))


class TestTableMechanics:
    def entry(self, **kw):
        e = {"topology": "4", "P": 4, "min_nbytes": 1 << 20,
             "max_nbytes": 16 << 20, "knobs": {"design": "chain"},
             "latency": 1.0, "default_latency": 2.0}
        e.update(kw)
        return e

    def test_band_lookup_inclusive_exclusive(self):
        t = tables.TunedTable("mv2gdr", "reduce", "latency", [self.entry()])
        assert t.lookup("4", 4, 1 << 20) == {"design": "chain"}
        assert t.lookup("4", 4, (16 << 20) - 1) == {"design": "chain"}
        assert t.lookup("4", 4, 16 << 20) is None      # max exclusive
        assert t.lookup("4", 4, (1 << 20) - 1) is None  # below min
        assert t.lookup("4", 5, 2 << 20) is None        # wrong P
        assert t.lookup("2+2", 4, 2 << 20) is None      # wrong topology

    def test_open_upper_band(self):
        t = tables.TunedTable("mv2gdr", "reduce", "latency",
                              [self.entry(max_nbytes=None)])
        assert t.lookup("4", 4, 1 << 30) == {"design": "chain"}

    def test_serialization_round_trip(self):
        t = tables.TunedTable("mv2gdr", "reduce", "latency",
                              [self.entry(),
                               self.entry(min_nbytes=16 << 20,
                                          max_nbytes=64 << 20,
                                          knobs={"design": "CC-4",
                                                 "chunk_bytes": 1 << 20})])
        t2 = tables.TunedTable.from_payload(json.loads(t.to_json()))
        assert t2.to_json() == t.to_json()
        assert t2.lookup("4", 4, 32 << 20)["design"] == "CC-4"

    def test_version_mismatch_rejected(self):
        payload = tables.TunedTable("x", "y", "latency",
                                    [self.entry()]).to_payload()
        payload["version"] = tables.TABLE_VERSION + 1
        with pytest.raises(ValueError):
            tables.TunedTable.from_payload(payload)

    def test_corrupt_file_loads_as_none(self, tmp_path):
        path = tmp_path / "mv2gdr.reduce.json"
        path.write_text("{not json")
        assert tables.load_table("mv2gdr", "reduce", str(tmp_path)) is None
        assert tables.load_table("nope", "reduce", str(tmp_path)) is None

    def test_topology_key(self):
        sim = Simulator(seed=0)
        a = cluster_a(sim, n_nodes=2)
        assert tables.topology_key(a.gpus[:12]) == "12"
        assert tables.topology_key(a.gpus[:32]) == "16+16"
        b = cluster_b(Simulator(seed=0), n_nodes=6)
        assert tables.topology_key(b.gpus[:12]) == "2+2+2+2+2+2"

    def test_comm_topology_cached(self):
        rt, comm = runtime_for(12)
        key = tables.comm_topology(comm)
        assert key == "12"
        assert comm._tune_topology == key
        assert tables.comm_topology(comm) is key

    def test_merge_bands(self):
        same = {"design": "chain", "chunk_bytes": 1 << 20}
        merged = _merge_bands([
            self.entry(min_nbytes=1 << 20, max_nbytes=4 << 20, knobs=same),
            self.entry(min_nbytes=4 << 20, max_nbytes=16 << 20, knobs=same),
            self.entry(min_nbytes=16 << 20, max_nbytes=64 << 20,
                       knobs={"design": "binomial"}),
        ])
        assert len(merged) == 2
        assert merged[0]["min_nbytes"] == 1 << 20
        assert merged[0]["max_nbytes"] == 16 << 20

    def test_check_tables_detects_drift(self, tmp_path):
        t = tables.TunedTable("mv2gdr", "reduce", "latency", [self.entry()])
        tuned = {("mv2gdr", "reduce"): t}
        assert check_tables(tuned, str(tmp_path))  # missing file
        (tmp_path / "mv2gdr.reduce.json").write_text(t.to_json())
        assert check_tables(tuned, str(tmp_path)) == []
        (tmp_path / "mv2gdr.reduce.json").write_text(t.to_json() + " ")
        assert check_tables(tuned, str(tmp_path))  # byte drift


@pytest.fixture
def synthetic_tables(tmp_path, monkeypatch):
    """Point the consult at a tmp dir with a synthetic steering table:
    P=4 on one Cluster-A node -> chain with a 256K chunk."""
    entries = [{"topology": "4", "P": 4, "min_nbytes": 1 << 20,
                "max_nbytes": None,
                "knobs": {"design": "chain", "chunk_bytes": 256 << 10},
                "latency": 1.0, "default_latency": 2.0}]
    t = tables.TunedTable("mv2gdr", "reduce", "latency", entries)
    (tmp_path / "mv2gdr.reduce.json").write_text(t.to_json())
    nt = tables.TunedTable(
        "nccl", "allreduce", "latency",
        [{"topology": "4", "P": 4, "min_nbytes": 0, "max_nbytes": None,
          "knobs": {"algorithm": "tree"}, "latency": 1.0,
          "default_latency": 2.0}])
    (tmp_path / "nccl.allreduce.json").write_text(nt.to_json())
    monkeypatch.setattr(tables, "_DEFAULT_DIR", str(tmp_path))
    tables.invalidate_cache()
    yield str(tmp_path)
    tables.invalidate_cache()


class TestDispatchConsult:
    def test_tuned_reduce_consults_table(self, synthetic_tables):
        rt, comm = runtime_for(4)
        tuned = reduce_latency(rt, comm, 8 << 20)
        rt2, comm2 = runtime_for(4)
        with tables.tables_disabled():
            default = reduce_latency(rt2, comm2, 8 << 20)
        # The steering entry forces chain/256K where the decision table
        # picks the flat chain with the 4M profile segment — timings
        # must differ, proving the consult happened.
        assert tuned != default

    def test_derived_profile_bypasses_table(self, synthetic_tables):
        # A CVAR-style derive (non-default value) must disable consult:
        # explicit MPI_T writes win over offline tables.
        rt, comm = runtime_for(4)
        rt.set_profile(rt.profile.derive(chain_size=3))
        derived = reduce_latency(rt, comm, 8 << 20)
        rt2, comm2 = runtime_for(4)
        rt2.set_profile(rt2.profile.derive(chain_size=3))
        with tables.tables_disabled():
            derived_off = reduce_latency(rt2, comm2, 8 << 20)
        assert derived == derived_off

    def test_nccl_allreduce_consults_table(self, synthetic_tables):
        def latency(disabled):
            rt, comm = runtime_for(4, profile="nccl")

            def program(ctx):
                s = DeviceBuffer(ctx.gpu, 8 << 20)
                r = DeviceBuffer(ctx.gpu, 8 << 20)
                yield from nccl_allreduce(ctx, s, r)
                return ctx.sim.now

            if disabled:
                with tables.tables_disabled():
                    return max(rt.execute(comm, program))
            return max(rt.execute(comm, program))

        # 8M default-dispatches to the ring; the table forces the tree.
        assert latency(False) != latency(True)

    def test_same_seed_determinism_with_tables(self, synthetic_tables):
        runs = []
        for _ in range(2):
            rt, comm = runtime_for(4)
            runs.append(reduce_latency(rt, comm, 8 << 20))
        assert runs[0] == runs[1]

    def test_lookup_miss_is_cached_not_fatal(self, synthetic_tables):
        assert tables.lookup("openmpi", "reduce", "4", 4, 1 << 20) is None
        assert tables.lookup("openmpi", "reduce", "4", 4, 1 << 20) is None


class TestCommittedTables:
    """The tables shipped in src/repro/mpi/tuning_tables/."""

    def committed(self):
        out = []
        for fname in sorted(os.listdir(tables.tables_dir())):
            if not fname.endswith(".json"):
                continue
            backend, collective, _ = fname.split(".")
            t = tables.load_table(backend, collective)
            assert t is not None, f"committed table {fname} unreadable"
            out.append(t)
        return out

    def test_tables_exist_and_win_strictly(self):
        committed = self.committed()
        assert committed, "no committed tuning tables"
        for t in committed:
            assert t.entries
            for e in t.entries:
                assert e["latency"] < e["default_latency"], (
                    f"{t.backend}.{t.collective} entry at "
                    f"{e['min_nbytes']} does not beat the default")
                assert e["min_nbytes"] < (e["max_nbytes"] or 1 << 62)

    def test_committed_point_is_faster_end_to_end(self):
        """Dispatch through a committed entry beats the same point with
        tables disabled — the tuner's whole promise."""
        t = tables.load_table("mv2gdr", "reduce")
        e = t.entries[0]
        P, nbytes = e["P"], e["min_nbytes"]
        kind = "a" if "+" not in e["topology"] else "b"
        rt, comm = runtime_for(P, kind=kind)
        assert tables.comm_topology(comm) == e["topology"]
        tuned = reduce_latency(rt, comm, nbytes)
        rt2, comm2 = runtime_for(P, kind=kind)
        with tables.tables_disabled():
            default = reduce_latency(rt2, comm2, nbytes)
        assert tuned < default

    def test_regenerated_json_is_canonical(self):
        for t in self.committed():
            path = tables.table_path(t.backend, t.collective)
            with open(path) as fh:
                assert fh.read() == t.to_json()


class TestKnobValidation:
    """Satellite 1: non-positive / mis-typed knobs raise instead of
    silently falling back through the ``chunk_bytes or default`` idiom."""

    def test_validate_knob_contract(self):
        assert validate_knob(None, "x") is None
        assert validate_knob(8, "x") == 8
        with pytest.raises(ValueError, match="x"):
            validate_knob(0, "x")
        with pytest.raises(ValueError):
            validate_knob(-4, "x")
        with pytest.raises(ValueError):
            validate_knob(True, "x")
        with pytest.raises(ValueError):
            validate_knob(2.5, "x")
        with pytest.raises(ValueError):
            validate_knob(2, "x", minimum=4)

    @pytest.mark.parametrize("bad", [0, -1, True, "4"])
    def test_reduce_chain_rejects_bad_chunk(self, bad):
        rt, comm = runtime_for(4)

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, 1 << 20)
            recvbuf = (DeviceBuffer(ctx.gpu, 1 << 20)
                       if ctx.rank == 0 else None)
            yield from reduce_chain(ctx, sendbuf, recvbuf, 0,
                                    chunk_bytes=bad)

        with pytest.raises(ValueError, match="chunk_bytes"):
            rt.execute(comm, program)

    def test_reduce_chain_rejects_bad_window(self):
        rt, comm = runtime_for(4)

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, 1 << 20)
            recvbuf = (DeviceBuffer(ctx.gpu, 1 << 20)
                       if ctx.rank == 0 else None)
            yield from reduce_chain(ctx, sendbuf, recvbuf, 0, window=0)

        with pytest.raises(ValueError, match="window"):
            rt.execute(comm, program)

    def test_hierarchical_rejects_bad_chunk(self):
        rt, comm = runtime_for(8)

        def program(ctx):
            sendbuf = DeviceBuffer(ctx.gpu, 1 << 20)
            recvbuf = (DeviceBuffer(ctx.gpu, 1 << 20)
                       if ctx.rank == 0 else None)
            yield from hierarchical_reduce(ctx, sendbuf, recvbuf, 0,
                                           config="CB-4", chunk_bytes=0)

        with pytest.raises(ValueError, match="chunk_bytes"):
            rt.execute(comm, program)

    @pytest.mark.parametrize("bad", [0, 2, -8])
    def test_nccl_rejects_bad_chunk(self, bad):
        rt, comm = runtime_for(4, profile="nccl")

        def program(ctx):
            buf = DeviceBuffer(ctx.gpu, 1 << 20)
            yield from nccl_bcast(ctx, buf, 0, chunk_bytes=bad)

        with pytest.raises(ValueError, match="chunk_bytes"):
            rt.execute(comm, program)


class TestProfileRegistry:
    """Satellite 2: registration normalizes names the way lookup does."""

    def test_mixed_case_registration_reachable(self):
        prof = MV2GDR.derive(name="MyTuned-GDR")
        register_profile(prof)
        try:
            got = get_profile("mytuned-gdr")
            assert got.name == "mytuned-gdr"
            assert get_profile("MYTUNED-GDR") is got
            assert is_stock_profile(got)
        finally:
            from repro.mpi.profiles import _PROFILES
            _PROFILES.pop("mytuned-gdr", None)

    def test_is_stock_profile_gate(self):
        stock = get_profile("mv2gdr")
        assert is_stock_profile(stock)
        assert not is_stock_profile(stock.derive(chain_size=3))
        # Deriving back to the registered value restores equality — the
        # profile is indistinguishable from stock, so tables re-apply.
        assert is_stock_profile(stock.derive(chain_size=stock.chain_size))
        assert not is_stock_profile(stock.derive(name="never-registered"))


class TestTunedChoiceMemo:
    """The per-communicator memo of the "tuned" reduce decision misses
    on every input its gate reads."""

    def counting(self, monkeypatch):
        from repro.mpi.collectives import tuning
        calls = []
        real = tuning._table_knobs

        def spy(ctx, nbytes):
            calls.append(nbytes)
            return real(ctx, nbytes)

        monkeypatch.setattr(tuning, "_table_knobs", spy)
        return tuning._tuned_choice, calls

    def test_memo_hits_and_misses(self, monkeypatch):
        choice, calls = self.counting(monkeypatch)
        rt, comm = runtime_for(16)
        ctx = comm.context(0)
        first = choice(ctx, 8 << 20)
        assert choice(ctx, 8 << 20) == first and len(calls) == 1
        choice(ctx, 4 << 20)
        assert len(calls) == 2  # nbytes is part of the key
        tables.invalidate_cache()
        assert choice(ctx, 8 << 20) == first and len(calls) == 3
        with tables.tables_disabled():
            choice(ctx, 8 << 20)
        assert len(calls) == 4
        choice(ctx, 8 << 20)
        assert len(calls) == 5  # re-enabled: the stamp moved back
        rt.set_profile(rt.profile.derive(chain_size=3))
        choice(comm.context(0), 8 << 20)
        assert len(calls) == 6  # a CVAR write swaps the profile object

    def test_memo_is_per_communicator(self, monkeypatch):
        choice, calls = self.counting(monkeypatch)
        _, comm1 = runtime_for(16)
        _, comm2 = runtime_for(16)
        choice(comm1.context(0), 8 << 20)
        choice(comm2.context(0), 8 << 20)
        assert len(calls) == 2
