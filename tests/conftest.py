"""Shared fixtures: the Figure 1 fragment and small synthetic graphs."""

from __future__ import annotations

import pytest

from repro.core import DetectionParams, MotifEngine
from repro.graph import GraphSnapshot

# Vertex ids for the paper's Figure 1 fragment.
A1, A2, A3 = 0, 1, 2
B1, B2 = 3, 4
C1, C2, C3 = 5, 6, 7

#: The static A -> B follow edges visible in Figure 1.
FIGURE1_FOLLOWS = [(A1, B1), (A2, B1), (A2, B2), (A3, B2)]


@pytest.fixture
def figure1_snapshot() -> GraphSnapshot:
    """The Figure 1 fragment as an offline snapshot (8 vertices)."""
    return GraphSnapshot.from_edges(FIGURE1_FOLLOWS, num_nodes=8)


@pytest.fixture
def figure1_engine(figure1_snapshot: GraphSnapshot) -> MotifEngine:
    """Single-machine engine over Figure 1, k=2 as in the worked example."""
    return MotifEngine.from_snapshot(
        figure1_snapshot, DetectionParams(k=2, tau=600.0)
    )


@pytest.fixture(params=["shm", "queue"])
def worker_transport(request, monkeypatch) -> str:
    """The worker transport on each lane of its wire.

    ``shm`` is the ring-fronted wire a host with ``/dev/shm`` builds;
    ``queue`` is the same transport with the host probe patched false —
    the queue-only wire a host without shared memory runs.  Either way
    the transport value to pass is ``"shm"``.
    """
    from repro.cluster import shm

    if request.param == "queue":
        monkeypatch.setattr(shm, "shm_available", lambda: False)
    elif not shm.shm_available():
        pytest.skip("POSIX shared memory unavailable on this host")
    return "shm"
