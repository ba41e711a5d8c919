"""Rack-scale inter-server scheduling over Concord servers.

The paper schedules within one server; rack-wide, microsecond tails only
survive when an inter-server layer balances load across servers *and* each
server schedules approximately optimally inside (RackSched's two-layer
argument).  This package composes N existing single-dispatcher
:class:`~repro.core.server.Server` instances under one shared simulator:

* :class:`~repro.cluster.rack.Cluster` — build and run a rack;
* :class:`~repro.cluster.balancer.LoadBalancer` — the routing agent;
* :mod:`repro.cluster.policies` — random, round-robin, JSQ and
  power-of-d-choices;
* :class:`~repro.cluster.network.NetworkFabric` — hop latency and the
  telemetry-staleness model that makes stale-queue-signal effects emerge;
* :class:`~repro.cluster.rack.ClusterResult` — rack-wide merged metrics.
"""

from repro.cluster.network import NetworkFabric, TelemetryBoard
from repro.cluster.policies import (
    CLUSTER_POLICIES,
    InterServerPolicy,
    JSQPolicy,
    Po2Policy,
    RandomPolicy,
    RoundRobinPolicy,
    make_cluster_policy,
)
from repro.cluster.balancer import LoadBalancer
from repro.cluster.rack import Cluster, ClusterResult

__all__ = [
    "NetworkFabric",
    "TelemetryBoard",
    "InterServerPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "JSQPolicy",
    "Po2Policy",
    "make_cluster_policy",
    "CLUSTER_POLICIES",
    "LoadBalancer",
    "Cluster",
    "ClusterResult",
]
