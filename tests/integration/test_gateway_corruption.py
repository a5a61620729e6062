"""Directed gateway corruption on both facades.

``ClusterManager.corrupt_gateway`` and ``WanManager.corrupt_site_gateway``
arm relays of one gateway replica: with a ``direction`` only the relay
leaving that side, and ground truth names only the destination-facing
pid (the one the destination's divergence detector can convict);
without one, both relays and both pids.  An unknown direction is a
configuration error of the facade.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterConfigError, ClusterManager
from repro.obs import Observability
from repro.obs.forensics import ForensicsHub
from repro.wan import WanConfig, WanConfigError, WanManager


def _cluster():
    obs = Observability(forensics=ForensicsHub())
    cluster = ClusterManager(ClusterConfig(num_rings=2, seed=5), obs=obs)
    return cluster, cluster.corrupt_gateway, cluster.links[(0, 1)], ClusterConfigError


def _wan():
    obs = Observability(forensics=ForensicsHub())
    wan = WanManager(WanConfig(sites=("alpha", "beta"), seed=3), obs=obs)
    return (
        wan,
        wan.corrupt_site_gateway,
        wan.links[("alpha", "beta")],
        WanConfigError,
    )


FACADES = {"cluster": _cluster, "wan": _wan}


def _armed(link):
    """(replica index, relay direction) of every Byzantine relay."""
    return [
        (replica.index, name)
        for replica in link.replicas
        for name, relay in (("ab", replica.forward_ab), ("ba", replica.forward_ba))
        if relay.corrupt
    ]


def _culprits(facade):
    return [fault.culprit for fault in facade.obs.forensics.ground_truth()]


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_direction_arms_only_the_relay_leaving_that_side(facade):
    system, corrupt, link, _error = FACADES[facade]()
    replica = corrupt(link.side_a, link.side_b, index=1, direction=link.side_a)
    assert replica is link.replicas[1]
    assert _armed(link) == [(1, "ab")]
    assert _culprits(system) == [replica.pid_b]


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_reverse_direction_names_the_other_pid(facade):
    system, corrupt, link, _error = FACADES[facade]()
    replica = corrupt(link.side_a, link.side_b, index=2, direction=link.side_b)
    assert _armed(link) == [(2, "ba")]
    assert _culprits(system) == [replica.pid_a]


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_no_direction_arms_both_relays(facade):
    system, corrupt, link, _error = FACADES[facade]()
    replica = corrupt(link.side_a, link.side_b, index=0)
    assert _armed(link) == [(0, "ab"), (0, "ba")]
    assert sorted(_culprits(system)) == sorted([replica.pid_a, replica.pid_b])


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_scheduled_corruption_arms_at_its_time(facade):
    system, corrupt, link, _error = FACADES[facade]()
    corrupt(link.side_a, link.side_b, index=0, at_time=0.05, direction=link.side_b)
    assert _armed(link) == []
    system.scheduler.run(until=0.06)
    assert _armed(link) == [(0, "ba")]
    assert [fault.time for fault in system.obs.forensics.ground_truth()] == [0.05]


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_unknown_direction_is_rejected(facade):
    system, corrupt, link, error = FACADES[facade]()
    with pytest.raises(error) as excinfo:
        corrupt(link.side_a, link.side_b, index=0, direction="nowhere")
    assert "nowhere" in str(excinfo.value)
    assert _armed(link) == []
    assert _culprits(system) == []
