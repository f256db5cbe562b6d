"""Unit tests for the columnar EventBatch and its helpers."""

import numpy as np
import pytest

from repro.core import ActionType, EdgeEvent, EventBatch, iter_event_batches
from repro.core.batch import ACTION_CODES
from repro.gen import StreamConfig, generate_event_batch, generate_event_stream


EVENTS = [
    EdgeEvent(1.0, 10, 20),
    EdgeEvent(2.0, 11, 21, ActionType.RETWEET),
    EdgeEvent(2.5, 12, 20, ActionType.FAVORITE),
    EdgeEvent(3.0, 13, 22),
]


class TestEventBatch:
    def test_from_events_roundtrip(self):
        batch = EventBatch.from_events(EVENTS)
        assert len(batch) == 4
        assert batch.to_events() == EVENTS
        assert [e.action for e in batch.to_events()] == [e.action for e in EVENTS]

    def test_columns_are_numpy(self):
        batch = EventBatch.from_events(EVENTS)
        assert batch.timestamps.dtype == np.float64
        assert batch.actors.dtype == np.int64
        assert batch.targets.dtype == np.int64
        assert batch.actions.dtype == np.uint8
        assert batch.actions.tolist() == [
            ACTION_CODES[e.action] for e in EVENTS
        ]

    def test_from_columns(self):
        batch = EventBatch([1.0, 2.0], [3, 4], [5, 6])
        assert batch.to_events() == [EdgeEvent(1.0, 3, 5), EdgeEvent(2.0, 4, 6)]
        assert all(e.action is ActionType.FOLLOW for e in batch.to_events())

    def test_from_columns_with_action_objects(self):
        batch = EventBatch(
            [1.0], [3], [5], [ActionType.RETWEET]
        )
        assert batch.to_events()[0].action is ActionType.RETWEET

    def test_validation_misaligned(self):
        with pytest.raises(ValueError, match="misaligned"):
            EventBatch([1.0, 2.0], [3], [5, 6])

    def test_validation_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventBatch([1.0], [-3], [5])

    def test_empty(self):
        batch = EventBatch.empty()
        assert len(batch) == 0
        assert batch.to_events() == []

    def test_slice_is_view(self):
        batch = EventBatch.from_events(EVENTS)
        view = batch.slice(1, 3)
        assert len(view) == 2
        assert view.to_events() == EVENTS[1:3]
        assert view.timestamps.base is not None  # numpy view, not a copy

    def test_scan_of_distinct_targets_reads_each_event_alone(self):
        batch = EventBatch([1.0, 2.0, 3.0], [1, 2, 3], [7, 8, 9])
        assert scan_batch(batch) == per_event_scans(batch)
        assert [[b for _t, b, _a in fresh] for fresh in scan_batch(batch)] == [
            [1], [2], [3]
        ]

    def test_scan_of_repeated_targets_sees_earlier_edges(self):
        batch = EventBatch(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 2, 3, 4, 5], [7, 8, 7, 7, 9]
        )
        # A repeat sees the batch's earlier edges to its target, never a
        # later one.
        assert scan_batch(batch) == per_event_scans(batch)
        assert [[b for _t, b, _a in fresh] for fresh in scan_batch(batch)] == [
            [1], [2], [1, 3], [1, 3, 4], [5]
        ]


def scan_batch(batch):
    """D's one-pass batch scan, read before the batch is inserted."""
    from repro.graph import DynamicEdgeIndex

    index = DynamicEdgeIndex(retention=100.0)
    index.enter(batch, "engine")
    return index.fresh_batch(batch, None, 100.0, 0)


def per_event_scans(batch):
    """The per-event loop: insert each event, then read its target."""
    from repro.graph import DynamicEdgeIndex

    index = DynamicEdgeIndex(retention=100.0)
    scans = []
    for event in batch.to_events():
        index.insert(event.actor, event.target, event.created_at, event.action)
        scans += index.fresh_sources_multi(
            [event.target], [event.created_at], 100.0, raw=True
        )
    return scans


class TestIterEventBatches:
    def test_chunking(self):
        batches = list(iter_event_batches(EVENTS, 3))
        assert [len(b) for b in batches] == [3, 1]
        assert [e for b in batches for e in b.to_events()] == EVENTS

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_event_batches(EVENTS, 0))


class TestGenerateEventBatch:
    def test_matches_object_stream(self):
        config = StreamConfig(
            num_users=500,
            duration=200.0,
            background_rate=5.0,
            diurnal_amplitude=0.4,
            seed=7,
        )
        from_objects = EventBatch.from_events(generate_event_stream(config))
        columnar = generate_event_batch(config)
        assert np.array_equal(columnar.timestamps, from_objects.timestamps)
        assert np.array_equal(columnar.actors, from_objects.actors)
        assert np.array_equal(columnar.targets, from_objects.targets)
        assert np.array_equal(columnar.actions, from_objects.actions)

    def test_matches_object_stream_with_bursts(self):
        from repro.gen import BurstSpec

        config = StreamConfig(
            num_users=500,
            duration=200.0,
            background_rate=3.0,
            bursts=(
                BurstSpec(
                    target=499,
                    start=50.0,
                    duration=30.0,
                    num_actors=20,
                    action=ActionType.RETWEET,
                ),
            ),
            seed=11,
        )
        from_objects = generate_event_stream(config)
        columnar = generate_event_batch(config)
        assert columnar.to_events() == from_objects
        assert [e.action for e in columnar.to_events()] == [
            e.action for e in from_objects
        ]
