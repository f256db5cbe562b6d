"""Unit tests for partitioners and the simulated RPC layer."""

import numpy as np
import pytest

from repro.cluster.partitioner import HashPartitioner, ModuloPartitioner
from repro.cluster.rpc import RpcError, SimulatedChannel
from repro.util.rng import make_rng


class TestPartitioners:
    @pytest.mark.parametrize("cls", [HashPartitioner, ModuloPartitioner])
    def test_in_range_and_deterministic(self, cls):
        partitioner = cls(7)
        for a in range(500):
            p = partitioner.partition_of(a)
            assert 0 <= p < 7
            assert p == partitioner.partition_of(a)

    def test_hash_partitioner_balanced(self):
        partitioner = HashPartitioner(10)
        counts = [0] * 10
        for a in range(20_000):
            counts[partitioner.partition_of(a)] += 1
        assert min(counts) > 0.8 * max(counts)

    def test_hash_partitioner_stable_values(self):
        """Assignments are frozen constants — replicas must always agree."""
        partitioner = HashPartitioner(20)
        sample = {a: partitioner.partition_of(a) for a in (0, 1, 42, 10_000)}
        assert sample == {
            a: HashPartitioner(20).partition_of(a) for a in sample
        }

    def test_modulo_partitioner_transparent(self):
        partitioner = ModuloPartitioner(4)
        assert [partitioner.partition_of(a) for a in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    @pytest.mark.parametrize("num_partitions", [1, 3, 20])
    @pytest.mark.parametrize("cls", [HashPartitioner, ModuloPartitioner])
    def test_owners_is_partition_of_over_a_column(self, cls, num_partitions):
        """The bulk load's owner column agrees with the scalar rule, on
        random ids plus 0, 2**32 - 1 and 2**53."""
        rng = np.random.default_rng(7)
        ids = np.concatenate(
            (rng.integers(0, 2**40, 10_000), [0, 2**32 - 1, 2**53])
        ).astype(np.int64)
        partitioner = cls(num_partitions)
        owners = partitioner.owners(ids)
        assert owners.dtype == np.int64
        assert owners.tolist() == [partitioner.partition_of(a) for a in ids.tolist()]

    @pytest.mark.parametrize("cls", [HashPartitioner, ModuloPartitioner])
    def test_zero_partitions_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(0)


class TestSimulatedChannel:
    def test_call_returns_value_and_latency(self):
        channel = SimulatedChannel("test", latency_model=lambda: 0.005)
        result = channel.call(lambda x: x * 2, 21)
        assert result.value == 42
        assert result.latency == 0.005
        assert channel.stats.calls == 1
        assert channel.stats.virtual_latency_total == 0.005

    def test_zero_latency_default(self):
        channel = SimulatedChannel("test")
        assert channel.call(len, [1, 2]).latency == 0.0

    def test_down_channel_raises(self):
        channel = SimulatedChannel("test")
        channel.mark_down()
        with pytest.raises(RpcError, match="down"):
            channel.call(lambda: 1)
        assert channel.stats.failures == 1
        channel.mark_up()
        assert channel.call(lambda: 1).value == 1

    def test_injected_faults_fire_at_configured_rate(self):
        channel = SimulatedChannel(
            "flaky", failure_rate=0.3, rng=make_rng(5, "rpc")
        )
        failures = 0
        for _ in range(2_000):
            try:
                channel.call(lambda: None)
            except RpcError:
                failures += 1
        assert failures == pytest.approx(600, rel=0.25)

    def test_failure_injection_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            SimulatedChannel("bad", failure_rate=0.5)

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            SimulatedChannel("bad", failure_rate=1.5, rng=make_rng(0))
