"""Checkpointing the dynamic index for fast replica bootstrap.

A replacement replica that replays the stream from scratch serves wrong
(under-counted) results until its D warms up — the freshness window of
history is missing.  Production bootstraps from a snapshot plus stream
catch-up; this module provides the snapshot half: a
:class:`~repro.graph.dynamic_index.DynamicEdgeIndex` as flat columns and
back, action tags intact.  The cluster's ``checkpoint_dynamic`` /
``load_dynamic`` control messages and the durability tier's snapshot
store both carry these arrays; there is no file format of its own.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import ActionType
from repro.graph.dynamic_index import DynamicEdgeIndex

#: Integer codes for action tags in the checkpoint arrays (0 = untagged).
_ACTION_TO_CODE: dict[object, int] = {
    None: 0,
    ActionType.FOLLOW: 1,
    ActionType.RETWEET: 2,
    ActionType.FAVORITE: 3,
}
_CODE_TO_ACTION = {code: action for action, code in _ACTION_TO_CODE.items()}


def dynamic_index_arrays(index: DynamicEdgeIndex) -> dict[str, np.ndarray]:
    """Every stored edge of *index* as flat parallel columns.

    Per-target arrival order is preserved, which is the only ordering
    the ring/deque stores depend on.
    """
    targets: list[int] = []
    timestamps: list[float] = []
    sources: list[int] = []
    actions: list[int] = []
    for c in index.targets():
        for timestamp, b, action in index.entries(c):
            targets.append(c)
            timestamps.append(timestamp)
            sources.append(b)
            actions.append(_ACTION_TO_CODE.get(action, 0))
    return {
        "targets": np.asarray(targets, dtype=np.int64),
        "timestamps": np.asarray(timestamps, dtype=np.float64),
        "sources": np.asarray(sources, dtype=np.int64),
        "actions": np.asarray(actions, dtype=np.int8),
    }


def restore_dynamic_arrays(
    index: DynamicEdgeIndex, arrays: dict[str, np.ndarray]
) -> int:
    """Re-insert :func:`dynamic_index_arrays` edges into a live *index*.

    Insertion follows array order (per-target arrival order), so window
    and cap pruning semantics carry over exactly.  Returns the number of
    edges inserted.
    """
    targets = arrays["targets"]
    timestamps = arrays["timestamps"]
    sources = arrays["sources"]
    actions = arrays["actions"]
    for i in range(len(targets)):
        code = int(actions[i])
        if code not in _CODE_TO_ACTION:
            raise ValueError(f"unknown action code {code} in checkpoint arrays")
        index.insert(
            int(sources[i]),
            int(targets[i]),
            float(timestamps[i]),
            action=_CODE_TO_ACTION[code],
        )
    return len(targets)
