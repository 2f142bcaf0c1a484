"""The dynamic mutation API: versioning, journaling, view consistency."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.expertise import Expert, ExpertNetwork
from repro.expertise.authority import inverse_authority
from repro.graph.adjacency import GraphError


@pytest.fixture()
def net() -> ExpertNetwork:
    return ExpertNetwork(
        [
            Expert("a", skills={"ml"}, h_index=10),
            Expert("b", skills={"db"}, h_index=2),
            Expert("c", skills={"ml", "db"}, h_index=5),
        ],
        edges=[("a", "b", 0.3), ("b", "c", 0.7)],
    )


def test_construction_is_version_zero(net):
    assert net.version == 0
    assert net.mutations_since(0) == ()


def test_every_mutation_bumps_version_once(net):
    net.add_expert(Expert("d", skills={"viz"}))
    net.add_collaboration("d", "a", weight=0.5)
    net.update_skills("d", {"viz", "ml"})
    net.update_h_index("d", 7)
    net.remove_collaboration("d", "a")
    net.remove_expert("d")
    assert net.version == 6
    ops = [m.op for m in net.mutations_since(0)]
    assert ops == [
        "add_expert",
        "add_collaboration",
        "update_skills",
        "update_h_index",
        "remove_collaboration",
        "remove_expert",
    ]
    assert [m.version for m in net.mutations_since(0)] == [1, 2, 3, 4, 5, 6]
    assert len(net.mutations_since(4)) == 2
    net.validate()


def test_from_collaborations_and_subnetwork_reset_history():
    experts = [
        Expert("a", papers={"p1", "p2"}),
        Expert("b", papers={"p2", "p3"}),
    ]
    net = ExpertNetwork.from_collaborations(experts, [("a", "b")])
    assert net.version == 0
    sub = net.subnetwork(["a", "b"])
    assert sub.version == 0


def test_add_expert_rejects_duplicates_and_indexes_skills(net):
    with pytest.raises(ValueError, match="duplicate"):
        net.add_expert(Expert("a"))
    net.add_expert(Expert("d", skills={"viz"}, h_index=3))
    assert "d" in net
    assert net.experts_with_skill("viz") == {"d"}
    assert net.graph.has_node("d")
    net.validate()


def test_remove_expert_drops_edges_profile_and_skills(net):
    edges_before = net.num_edges
    removed = net.remove_expert("b")
    assert removed.id == "b"
    assert "b" not in net
    assert net.num_edges == edges_before - 2
    assert net.experts_with_skill("db") == {"c"}
    with pytest.raises(KeyError):
        net.remove_expert("b")
    net.validate()


def test_remove_last_holder_forgets_the_skill(net):
    net.remove_expert("a")
    net.remove_expert("c")
    assert net.experts_with_skill("ml") == frozenset()
    assert "ml" not in set(net.skill_index.skills())
    net.validate()


def test_update_skills_keeps_index_exact_both_ways(net):
    net.update_skills("a", {"viz"})
    assert net.experts_with_skill("ml") == {"c"}
    assert net.experts_with_skill("viz") == {"a"}
    assert net.skills_of("a") == {"viz"}
    net.validate()


def test_update_h_index_changes_authority(net):
    net.update_h_index("b", 40)
    assert net.authority("b") == 40.0
    with pytest.raises(ValueError):
        net.update_h_index("b", -1)
    with pytest.raises(KeyError):
        net.update_h_index("ghost", 1)


def test_add_collaboration_records_old_weight(net):
    net.add_collaboration("a", "c", weight=0.9)
    net.add_collaboration("a", "c", weight=0.4)
    fresh, rewt = net.mutations_since(0)
    assert fresh.old_weight is None and fresh.weight == 0.9
    assert rewt.old_weight == 0.9 and rewt.weight == 0.4
    with pytest.raises(KeyError):
        net.add_collaboration("a", "ghost")


def test_remove_collaboration_returns_weight_and_validates(net):
    assert net.remove_collaboration("a", "b") == 0.3
    with pytest.raises(GraphError):
        net.remove_collaboration("a", "b")
    with pytest.raises(KeyError):
        net.remove_collaboration("a", "ghost")


def test_journal_truncation_returns_none(net, monkeypatch):
    monkeypatch.setattr(ExpertNetwork, "JOURNAL_CAP", 3)
    for h in range(5):
        net.update_h_index("a", h + 1)
    assert net.version == 5
    assert net.mutations_since(0) is None  # floor passed version 0
    assert net.mutations_since(1) is None
    assert [m.version for m in net.mutations_since(2)] == [3, 4, 5]
    with pytest.raises(ValueError):
        net.mutations_since(99)


def test_inverse_authority_column_is_whole_under_racing_readers():
    """Solves read the network concurrently between writes (the engine's
    reader/writer lock keeps writes exclusive).  Readers that race to
    rebuild the column for a new version must each see a whole,
    current column, never a half-built or previous one."""
    ids = [f"x{i:03d}" for i in range(300)]
    net = ExpertNetwork([Expert(x, h_index=1) for x in ids])
    readers = 4
    barrier = threading.Barrier(readers + 1)
    errors: list = []
    expected: dict = {}

    def reader() -> None:
        for _ in range(40):
            barrier.wait(timeout=10)  # the write for this round is done
            try:
                assert net.inverse_authorities() == expected
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
            barrier.wait(timeout=10)  # every read of this round is done

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(readers)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for h in range(2, 42):
            for x in ids[::50]:
                net.update_h_index(x, h)
            expected.clear()
            expected.update(
                (x, inverse_authority(net.authority(x), floor=net.authority_floor))
                for x in ids
            )
            barrier.wait(timeout=10)
            barrier.wait(timeout=10)
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
