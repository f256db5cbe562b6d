"""The notification delivery funnel.

"Each day, billions of raw candidates are generated, yielding millions of
push notifications (after eliminating duplicates, suppressing messages
during non-waking hours, controlling for fatigue, etc.)"

The funnel stages, in production order:

1. :class:`~repro.delivery.dedup.DedupFilter` — a (recipient, candidate)
   pair is pushed at most once per window; re-firing motifs generate the
   bulk of the raw volume, so this stage removes the most;
2. :class:`~repro.delivery.waking.WakingHoursFilter` — no pushes while the
   recipient is asleep (per-user timezone model);
3. :class:`~repro.delivery.fatigue.FatigueFilter` — a per-user daily cap.

:class:`~repro.delivery.pipeline.DeliveryPipeline` composes the stages and
keeps a :class:`~repro.sim.metrics.FunnelCounter`, which benchmark E6 reads
to reproduce the billions-to-millions reduction ratio.

The stateful stages (dedup, fatigue) store their maps in numpy
open-addressing tables (vectorized ``allow_mask`` probes, horizon-compacted
residency; see :mod:`repro.delivery.pairtable`).  Two contracts follow from
that layout:

* recipient and candidate ids are in ``[0, 2**32)`` — a pair packs into one
  ``uint64`` key; dedup's ``allow`` / ``allow_mask`` raise ``ValueError``
  on wider ids;
* ``now`` is non-decreasing across calls — expired entries are compacted
  against the latest ``now``, so a clock that runs backwards could consult
  state that was already evicted.

The ranked configuration inserts
:class:`~repro.delivery.scoring.TopKPerUserBuffer` — columnar accumulation
with a vectorized per-recipient top-k at flush — between detection and
the funnel.

For real notifier concurrency, :class:`~repro.delivery.sharded
.ShardedDeliveryPipeline` splits the funnel by recipient hash onto
independent shards — in-process or one worker process per shard — with
the delivered multiset and summed funnel counts unchanged.
"""

from repro.delivery.dedup import DedupFilter
from repro.delivery.fatigue import FatigueFilter
from repro.delivery.waking import WakingHoursFilter
from repro.delivery.notifier import PushNotification, PushNotifier
from repro.delivery.pipeline import (
    DeliveryFilter,
    DeliveryPipeline,
    release_window,
)
from repro.delivery.scoring import TopKPerUserBuffer, witness_score
from repro.delivery.sharded import (
    ShardedDeliveryPipeline,
    split_batch_by_shard,
)

__all__ = [
    "DedupFilter",
    "FatigueFilter",
    "WakingHoursFilter",
    "PushNotification",
    "PushNotifier",
    "DeliveryFilter",
    "DeliveryPipeline",
    "release_window",
    "TopKPerUserBuffer",
    "witness_score",
    "ShardedDeliveryPipeline",
    "split_batch_by_shard",
]
