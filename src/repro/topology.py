"""One deployment description, and the one function that builds it.

The paper's production system is a handful of numbers — k = 3, tau, 20
partitions x replicas, three queue hops.  :class:`TopologyConfig` is where
this repo writes such a deployment down: ``simulate`` and ``serve`` fill
one from their flags (whose defaults and help text are read off it),
``simulate --wal-dir`` stores it whole as the root's ``config.json``,
``recover`` loads it back, and all three hand it to
:func:`build_deployment`, the single place a cluster, a funnel, a serving
cache and a durability manager are put together.

Validation messages lead with the offending field's name (the repo's
convention: ``batch_size must be positive, got 0``), which lets the CLI
swap the name for the flag and reject a bad value at parse time — before
a root directory exists or a worker is spawned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.params import DetectionParams
from repro.delivery.dedup import DedupFilter
from repro.delivery.pipeline import DeliveryPipeline
from repro.delivery.scoring import TopKPerUserBuffer
from repro.delivery.sharded import ShardedDeliveryPipeline
from repro.ops.controller import ControllerConfig
from repro.serving.cache import ServingCache, ServingCacheConfig
from repro.sim.latency import (
    DelayModel,
    FixedDelay,
    LogNormalDelay,
    PRODUCTION_HOP_MEDIAN,
    PRODUCTION_HOP_SIGMA,
)
from repro.util.rng import make_rng
from repro.util.validation import require, require_non_negative, require_positive

if TYPE_CHECKING:
    from repro.durability.manager import DurabilityManager
    from repro.graph.snapshot import GraphSnapshot

HOP_NAMES = ("firehose", "fanout", "push")


#: What each scalar :class:`TopologyConfig` field does — also the help
#: text of the ``simulate`` flag of the same spelling.
FIELD_HELP = {
    "seed": "randomness for the hop delay models and the query load",
    "batch_size": "detection-consumer micro-batch size (only a size: 1 = "
    "one-event batches through the same flush, and no path:batching stage "
    "is reported)",
    "max_batch_wait": "micro-batch flush deadline in virtual seconds",
    "delivery_batch_size": "coalesce candidate batches until this many raw "
    "candidates are pending before one funnel dispatch (only a size: 1 = "
    "every candidate batch is its own window through the same flush, and "
    "no path:delivery-batching stage is reported)",
    "delivery_max_wait": "delivery coalescing window in virtual seconds "
    "(time spent waiting is reported as the path:delivery-batching stage)",
    "delivery_shards": "shard the delivery funnel by recipient hash onto "
    "this many independent shards (workers under --transport shm; "
    "1 = the single in-process funnel)",
    "query_qps": "mixed workload: serve this many zipf point queries per "
    "virtual second off a live serving cache while the stream ingests; "
    "read latency is reported from the serving:read stage.  The cache is "
    "written where the funnel runs: one cache in this process in front of "
    "one funnel, one per shard under --delivery-shards N (shared-memory "
    "arenas this process reads zero-copy under --transport shm)",
    "snapshot_interval": "with --wal-dir, take an incremental state "
    "snapshot every this many virtual seconds (at quiescent points); omit "
    "for WAL only",
    "wal_fsync_every": "fsync the WAL every N appended records (the "
    "power-loss exposure window; flushes to the OS are more frequent)",
    "wal_throttle": "wall-clock seconds to sleep per WAL append — a "
    "crash-testing aid that widens the window in which a SIGKILL lands "
    "mid-run",
    "hop_median": "override the calibrated lognormal queue-hop median "
    "(virtual seconds) for all three hops; 0 = deterministic zero-delay "
    "hops (exact crash-recovery equivalence)",
    "hop_sigma": "override the lognormal queue-hop sigma (with --hop-median)",
}


@dataclass(frozen=True)
class TopologyConfig:
    """A whole deployment: detection, cluster, funnel, serving, durability.

    The component configs are embedded, not re-declared; the scalars are
    the topology-level knobs, each spelled like its ``simulate`` flag and
    documented in :data:`FIELD_HELP`.
    """

    #: The motif program's ``--k`` / ``--tau``.
    detection: DetectionParams = DetectionParams(tau=1_800.0)
    #: ``--partitions`` / ``--transport`` (a sharded funnel's shards ride
    #: the same transport).
    cluster: ClusterConfig = ClusterConfig(num_partitions=4)
    #: ``--adaptive``: a controller that owns both micro-batching windows
    #: from construction on, so the static sizes / waits below only name
    #: its starting point.  ``None`` = static knobs.
    controller: ControllerConfig | None = None
    #: Shape of the pull-side serving cache (``None`` = no serving tier),
    #: written where the funnel runs: one cache tapped in front of a single
    #: funnel, one per shard of a sharded one.
    serving: ServingCacheConfig | None = None
    seed: int = 0
    batch_size: int = 1
    max_batch_wait: float = 0.05
    delivery_batch_size: int = 1
    delivery_max_wait: float = 0.05
    delivery_shards: int = 1
    #: ``--ranked --ranked-k``: release at most this many candidates per
    #: user per coalescing window into the funnel.  ``None`` = unranked.
    ranked_k: int | None = None
    query_qps: float | None = None
    snapshot_interval: float | None = None
    wal_fsync_every: int = 64
    wal_throttle: float = 0.0
    #: Delete WAL segments a snapshot already covers (``--no-wal-gc``).
    wal_gc: bool = True
    hop_median: float | None = None
    hop_sigma: float | None = None

    def __post_init__(self) -> None:
        for name in ("batch_size", "delivery_batch_size", "delivery_shards",
                     "wal_fsync_every"):
            require_positive(getattr(self, name), name)
        for name in ("max_batch_wait", "delivery_max_wait", "wal_throttle"):
            require_non_negative(getattr(self, name), name)
        for name in ("ranked_k", "query_qps", "snapshot_interval", "hop_sigma"):
            if getattr(self, name) is not None:
                require_positive(getattr(self, name), name)
        require(
            self.hop_sigma is None or self.hop_median is not None,
            "hop_sigma needs hop_median (it shapes the lognormal that median sets)",
        )
        if self.serving is not None:  # a NamedTuple: it validates nothing
            require_positive(self.serving.k, "serving_k")
            if self.serving.ttl is not None:
                require_positive(self.serving.ttl, "serving_ttl")

    @property
    def windows_reproducible(self) -> bool:
        """True when WAL replay can end each delivery window where the
        live run did: one candidate batch per window and no controller
        retuning it.  A wider window's boundaries depended on *measured*
        detection time and are not in the WAL."""
        return self.delivery_batch_size == 1 and self.controller is None

    def ranker(self) -> TopKPerUserBuffer | None:
        """A fresh per-window ranker, or ``None`` for unranked delivery."""
        return None if self.ranked_k is None else TopKPerUserBuffer(k=self.ranked_k)

    def hop_models(self) -> dict[str, DelayModel]:
        """One delay model per queue hop."""
        if self.hop_median is not None and self.hop_median <= 0:
            # The DES delivers ties FIFO, so zero-delay hops make the
            # whole topology order-deterministic.
            return {name: FixedDelay(0.0) for name in HOP_NAMES}
        median = PRODUCTION_HOP_MEDIAN if self.hop_median is None else self.hop_median
        sigma = PRODUCTION_HOP_SIGMA if self.hop_sigma is None else self.hop_sigma
        return {
            name: LogNormalDelay(median, sigma, make_rng(self.seed, "hop", name))
            for name in HOP_NAMES
        }

    # -- JSON (the durability root's config.json) -----------------------

    def to_dict(self) -> dict[str, Any]:
        """Every field, embedded configs as nested dicts (JSON-ready)."""
        out = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        for name in _EMBEDDED:
            if out[name] is not None:
                out[name] = _plain(out[name])
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TopologyConfig":
        """Inverse of :meth:`to_dict`, tolerant of other layouts' roots:
        absent keys (at either level) take this class's defaults, keys
        with no field are ignored, and the flat keys written before the
        config was stored whole are lifted into place."""
        data = _lift_legacy_keys(data)
        for name, kind in _EMBEDDED.items():
            given = data.get(name)
            if given is not None:
                base = _plain(getattr(DEFAULTS, name) or kind())
                data[name] = kind(
                    **{key: given.get(key, default) for key, default in base.items()}
                )
        return cls(**{s.name: data[s.name] for s in fields(cls) if s.name in data})


def _plain(config) -> dict[str, Any]:
    """An embedded config (dataclass or NamedTuple) as a dict."""
    return config._asdict() if isinstance(config, tuple) else asdict(config)


_EMBEDDED = {
    "detection": DetectionParams,
    "cluster": ClusterConfig,
    "controller": ControllerConfig,
    "serving": ServingCacheConfig,
}
#: Where every deployment default is written down (the CLI's included).
DEFAULTS = TopologyConfig()

#: Flat ``config.json`` keys of roots written by PR <= 20, and where each
#: lives now.
_LEGACY_KEYS = {
    "k": ("detection", "k"),
    "tau": ("detection", "tau"),
    "num_partitions": ("cluster", "num_partitions"),
    "transport": ("cluster", "transport"),
    "serving_k": ("serving", "k"),
    "serving_ttl": ("serving", "ttl"),
}


#: Stored transport names that now mean another: the queue-only worker
#: wire had its own name, and every worker wire is now one transport whose
#: ring the host decides.
_RENAMED_TRANSPORTS = {"process": "shm"}


def _lift_legacy_keys(data: dict[str, Any]) -> dict[str, Any]:
    """A copy of *data* with any pre-``TopologyConfig`` flat keys nested."""
    data = dict(data)
    # ``serving`` was a flag beside the flat shape keys (which a ``false``
    # leaves unlifted); roots older than the flag carried only the shape,
    # and building their possibly never-read cache is the safe reading.
    if isinstance(data.get("serving"), bool):
        data["serving"] = {} if data["serving"] else None
    for flat, (section, name) in _LEGACY_KEYS.items():
        if flat in data and data.get(section, {}) is not None:
            data[section] = {**data.get(section, {}), name: data.pop(flat)}
    if data.pop("adaptive", False):
        data.setdefault("controller", {})
    cluster = data.get("cluster")
    if isinstance(cluster, dict) and cluster.get("transport") in _RENAMED_TRANSPORTS:
        name = _RENAMED_TRANSPORTS[cluster["transport"]]
        data["cluster"] = {**cluster, "transport": name}
    # ``serving_shards`` stays unlifted: it shaped only the cache those
    # recoveries rebuilt beside their *single* funnel, and rows re-split by
    # user hash on load — one cache serves the same rows, and the
    # snapshot's dedup table keeps a funnel to load into.
    return data


@dataclass
class Deployment:
    """What :func:`build_deployment` put together, with one ``close()``."""

    config: TopologyConfig
    cluster: Cluster
    delivery: DeliveryPipeline | ShardedDeliveryPipeline | None = None
    #: The cache a window release writes in front of a *single* funnel;
    #: ``None`` when there is no serving tier or the shards write theirs.
    parent_cache: ServingCache | None = None
    durability: "DurabilityManager | None" = None

    @property
    def serving(self):
        """The cache reads go to: the parent's, else the shards'."""
        if self.parent_cache is not None:
            return self.parent_cache
        return getattr(self.delivery, "serving", None)

    def close(self) -> None:
        """Stop workers, release shm mappings, sync the WAL."""
        self.cluster.close()
        for part in (self.delivery, self.serving, self.durability):
            close = getattr(part, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def _funnel(_shard: int) -> DeliveryPipeline:
    """The funnel of a simulated deployment (each shard of a sharded one):
    dedup only — waking hours and fatigue are product policy the latency
    experiments leave out."""
    return DeliveryPipeline(filters=[DedupFilter()])


def build_deployment(
    config: TopologyConfig,
    snapshot: "GraphSnapshot",
    wal_dir: str | Path | None = None,
) -> Deployment:
    """Build everything *config* describes over the static *snapshot*.

    *wal_dir* switches the durable tier on: the directory becomes a
    durability root holding the graph and *config* itself.  Nothing built
    is leaked if a later step fails.
    """
    deployment = Deployment(
        config, Cluster.build(snapshot, config.detection, config.cluster)
    )
    try:
        # The cache writer lives where the funnel lives: the shards of a
        # sharded funnel each own theirs, a single funnel's is tapped.
        if config.delivery_shards > 1:
            deployment.delivery = ShardedDeliveryPipeline(
                config.delivery_shards,
                pipeline_factory=_funnel,
                transport=config.cluster.transport,
                serving=config.serving,
            )
        else:
            deployment.delivery = _funnel(0)
            if config.serving is not None:
                deployment.parent_cache = ServingCache(**config.serving._asdict())
        if wal_dir is not None:
            # Imported here: the durability package loads root configs
            # through this module.
            from repro.durability.manager import DurabilityManager, prepare_root

            deployment.durability = DurabilityManager(
                prepare_root(wal_dir, snapshot, config),
                deployment.cluster,
                fsync_every=config.wal_fsync_every,
                throttle_seconds=config.wal_throttle,
                gc_segments=config.wal_gc,
            )
    except BaseException:
        deployment.close()
        raise
    return deployment
