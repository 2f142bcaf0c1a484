"""The flat (zero-copy) label codec: pinned bytes, round trip, corruption.

Queries are served from flat columns
(:class:`repro.graph.pll_kernel.FlatLabelStore`), and snapshots travel
``export_flat_labels`` → :func:`encode_flat_labels` →
:func:`decode_labels_flat` → ``from_flat_labels`` with no per-entry
Python work.  The contracts pinned here:

* **byte identity** — ``encode_flat_labels`` writes exactly
  :data:`PINNED_LABEL_BYTES`, the label section the per-node-list
  encoder of format version 1 wrote for the same index, so the on-disk
  format is unchanged and old snapshots stay loadable;
* **round-trip identity** — decode → adopt restores an index that paid
  zero PLL builds and answers bit-identically;
* **corruption rejection** — truncation and insane-but-CRC-valid
  columns (bad counts, out-of-range hub/parent ranks) raise
  :class:`CorruptSnapshotError`.
"""

from __future__ import annotations

import struct
from array import array

import pytest

from repro.graph.adjacency import Graph, GraphError
from repro.graph.pll import PrunedLandmarkLabeling, pll_build_count
from repro.storage import (
    CorruptSnapshotError,
    decode_labels_flat,
    encode_flat_labels,
)
from repro.storage.codec import _LABEL_HEAD

#: The label section of ``sample_index(mutate=True)`` as the per-node-list
#: encoder wrote it (274 bytes): 6 nodes, 12 entries, incremental
#: updates 3.
PINNED_LABEL_BYTES = bytes.fromhex(
    "06000000260000005b2262222c202263222c202264222c202261222c20226973"
    "6c616e64222c20226c617465225d030000000c00000000000000010000000200"
    "0000030000000300000001000000020000000000000000000000010000000000"
    "0000010000000200000000000000020000000300000004000000040000000500"
    "00000000000000000000000000000000f83f0000000000000000000000000000"
    "0240000000000000e83f0000000000000000000000000000d03f000000000000"
    "004000000000000000000000000000000000000000000000e03f000000000000"
    "0000ffffffff00000000ffffffff0100000001000000ffffffff000000000200"
    "0000ffffffffffffffff04000000ffffffff"
)


def sample_index(*, mutate: bool = False) -> PrunedLandmarkLabeling:
    graph = Graph.from_edges(
        [("a", "b", 0.25), ("b", "c", 1.5), ("c", "d", 0.75), ("b", "d", 3.0)]
    )
    graph.add_node("island")
    pll = PrunedLandmarkLabeling(graph)
    if mutate:
        pll.add_node("late")
        pll.insert_edge("late", "island", 0.5)
        pll.insert_edge("a", "d", 2.0)
    return pll


def test_flat_encoder_writes_the_pinned_bytes():
    pll = sample_index(mutate=True)
    assert encode_flat_labels(pll.export_flat_labels()) == PINNED_LABEL_BYTES


def test_pinned_bytes_restore_an_identical_index():
    pll = sample_index(mutate=True)
    graph = pll._graph
    nodes = list(graph.nodes())
    restored = PrunedLandmarkLabeling.from_flat_labels(
        graph, decode_labels_flat(PINNED_LABEL_BYTES)
    )
    assert restored.export_flat_labels() == pll.export_flat_labels()
    for source in nodes:
        assert restored.distances_from(source, nodes) == pll.distances_from(
            source, nodes
        )
        for target in nodes:
            assert restored.distance(source, target) == pll.distance(source, target)


def test_decode_round_trip_is_zero_build_and_bit_identical():
    pll = sample_index(mutate=True)
    graph = pll._graph
    nodes = list(graph.nodes())
    expected = {source: pll.distances_from(source, nodes) for source in nodes}
    blob = encode_flat_labels(pll.export_flat_labels())

    builds = pll_build_count()
    restored = PrunedLandmarkLabeling.from_flat_labels(graph, decode_labels_flat(blob))
    assert pll_build_count() == builds
    assert restored.export_flat_labels() == pll.export_flat_labels()
    for source in nodes:
        assert restored.distances_from(source, nodes) == expected[source]
    # And the restored index re-encodes to the identical bytes.
    assert encode_flat_labels(restored.export_flat_labels()) == blob


# ----------------------------------------------------------------------
# corruption rejection
# ----------------------------------------------------------------------
@pytest.fixture()
def blob() -> bytes:
    return encode_flat_labels(sample_index().export_flat_labels())


@pytest.mark.parametrize("decoder", [decode_labels_flat])
def test_truncated_blob_rejected(blob, decoder):
    for cut in (1, _LABEL_HEAD.size + 2, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CorruptSnapshotError, match="truncat|shorter"):
            decoder(blob[:cut])


@pytest.mark.parametrize("decoder", [decode_labels_flat])
def test_counts_disagreeing_with_header_rejected(blob, decoder):
    n_nodes, order_len = _LABEL_HEAD.unpack_from(blob)
    counts_at = _LABEL_HEAD.size + order_len + struct.calcsize("<IQ")
    first_count = array("I")
    first_count.frombytes(blob[counts_at : counts_at + 4])
    bumped = array("I", [first_count[0] + 1]).tobytes()
    corrupt = blob[:counts_at] + bumped + blob[counts_at + 4 :]
    with pytest.raises(CorruptSnapshotError, match="counts"):
        decoder(corrupt)


def _encode_with_column(pll, column: str, index: int, value: int) -> bytes:
    state = pll.export_flat_labels()
    patched = state[column][:]  # arrays: slicing copies
    patched[index] = value
    state[column] = patched
    return encode_flat_labels(state)


@pytest.mark.parametrize("decoder", [decode_labels_flat])
def test_out_of_range_hub_rank_rejected(decoder):
    pll = sample_index()
    corrupt = _encode_with_column(pll, "ranks", 0, len(pll._order))
    with pytest.raises(CorruptSnapshotError, match="hub rank out of range"):
        decoder(corrupt)


@pytest.mark.parametrize("decoder", [decode_labels_flat])
def test_out_of_range_parent_rank_rejected(decoder):
    pll = sample_index()
    for bad in (-2, len(pll._order)):
        corrupt = _encode_with_column(pll, "parents", 0, bad)
        with pytest.raises(CorruptSnapshotError, match="parent rank out of range"):
            decoder(corrupt)


@pytest.mark.parametrize("decoder", [decode_labels_flat])
def test_undecodable_landmark_order_rejected(blob, decoder):
    start = _LABEL_HEAD.size
    corrupt = blob[:start] + b"\xff" + blob[start + 1 :]
    with pytest.raises(CorruptSnapshotError, match="landmark order"):
        decoder(corrupt)


def test_from_flat_labels_rejects_count_row_mismatch():
    pll = sample_index()
    graph = pll._graph
    state = pll.export_flat_labels()
    state["counts"] = state["counts"][:-1]
    with pytest.raises(GraphError):
        PrunedLandmarkLabeling.from_flat_labels(graph, state)
