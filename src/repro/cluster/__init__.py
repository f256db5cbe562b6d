"""The distributed serving architecture of §2.

"To distribute this design over multiple machines, we partition by the A's.
... Such a design guarantees that all adjacency list intersections are local
to each partition, which eliminates complex cross-partition operations at
scale.  Note that we can replicate the partitions for both fault tolerance
and increased query throughput.  The final design is a fairly standard
partitioned, replicated architecture with coordination handled by brokers
that fan-out queries and gather results."

Mapping to modules:

* :mod:`~repro.cluster.partitioner` — stable hash partitioning of the A's;
* :mod:`~repro.cluster.partition` — one partition server: an S shard, a
  *full* copy of D (every partition consumes the entire stream), and the
  detector programs;
* :mod:`~repro.cluster.replica` — replica sets with primary reads,
  failover, and resync after recovery;
* :mod:`~repro.cluster.broker` — fan-out / gather over all partitions;
* :mod:`~repro.cluster.transport` — the pluggable broker-to-partition
  call path: direct in-process calls (default), or one multiprocessing
  worker per partition behind a columnar wire;
* :mod:`~repro.cluster.shm` — the worker wire: mp queues, fronted by
  zero-copy shared-memory ring buffers under the ``shm`` transport;
* :mod:`~repro.cluster.rpc` — a simulated call layer that accounts virtual
  network latency and injected failures without sleeping;
* :mod:`~repro.cluster.cluster` — assembly of the whole stack from an
  offline snapshot.
"""

from repro.cluster.partitioner import HashPartitioner, ModuloPartitioner, Partitioner
from repro.cluster.rpc import RpcError, RpcStats, SimulatedChannel
from repro.cluster.partition import PartitionServer
from repro.cluster.replica import AllReplicasDown, ReplicaSet
from repro.cluster.shm import ShmRing, TornFrameError, shm_available
from repro.cluster.transport import (
    TRANSPORTS,
    InProcessTransport,
    PartitionHealthSnapshot,
    PartitionReply,
    PartitionTransport,
    ReplicaHealthSnapshot,
    WorkerTransport,
)
from repro.cluster.broker import Broker, BrokerStats
from repro.cluster.cluster import Cluster, ClusterConfig

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ModuloPartitioner",
    "RpcError",
    "RpcStats",
    "SimulatedChannel",
    "PartitionServer",
    "AllReplicasDown",
    "ReplicaSet",
    "TRANSPORTS",
    "PartitionTransport",
    "PartitionReply",
    "PartitionHealthSnapshot",
    "ReplicaHealthSnapshot",
    "InProcessTransport",
    "WorkerTransport",
    "ShmRing",
    "TornFrameError",
    "shm_available",
    "Broker",
    "BrokerStats",
    "Cluster",
    "ClusterConfig",
]
