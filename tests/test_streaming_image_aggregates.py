"""Unit tests for repro.streaming.sparse_image and aggregates (Table I, Fig. 1)."""

from __future__ import annotations

import numpy as np

from repro.streaming.aggregates import (
    QUANTITY_NAMES,
    compute_aggregates,
    compute_aggregates_summation,
    network_quantities,
    quantity_histograms,
)
from repro.streaming.packet import PacketTrace
from repro.streaming.sparse_image import traffic_image


def _tiny_window() -> PacketTrace:
    """Hand-constructed window with known aggregates.

    Packets: 5->7 (x3), 5->8 (x1), 6->7 (x2), plus one invalid packet.
    """
    src = [5, 5, 5, 5, 6, 6, 99]
    dst = [7, 7, 7, 8, 7, 7, 99]
    valid = [True] * 6 + [False]
    return PacketTrace.from_arrays(src, dst, valid=valid)


class TestTrafficImage:
    def test_matrix_values(self):
        image = traffic_image(_tiny_window())
        dense = image.to_dense()
        # rows: sources [5, 6]; cols: destinations [7, 8]
        np.testing.assert_array_equal(dense, [[3, 1], [2, 0]])

    def test_invalid_packets_excluded(self):
        image = traffic_image(_tiny_window())
        assert 99 not in image.source_ids
        assert image.n_valid == 6

    def test_counts(self):
        image = traffic_image(_tiny_window())
        assert image.n_sources == 2
        assert image.n_destinations == 2
        assert image.n_links == 3

    def test_empty_window(self):
        image = traffic_image(PacketTrace.empty())
        assert image.n_valid == 0
        assert image.n_links == 0

    def test_undirected_edges_lists_links(self):
        image = traffic_image(_tiny_window())
        edges = image.undirected_edges()
        assert edges.shape == (3, 2)
        assert {tuple(e) for e in edges.tolist()} == {(5, 7), (5, 8), (6, 7)}

    def test_sum_equals_nv(self, small_trace):
        window = small_trace.slice(0, 10_000)
        image = traffic_image(window)
        assert image.n_valid == window.n_valid


class TestTableIAggregates:
    def test_known_values(self):
        image = traffic_image(_tiny_window())
        agg = compute_aggregates(image)
        assert agg.valid_packets == 6
        assert agg.unique_links == 3
        assert agg.unique_sources == 2
        assert agg.unique_destinations == 2

    def test_matrix_and_summation_notations_agree_on_tiny_window(self):
        image = traffic_image(_tiny_window())
        assert compute_aggregates(image) == compute_aggregates_summation(image)

    def test_matrix_and_summation_notations_agree_on_synthetic_window(self, small_trace):
        image = traffic_image(small_trace.slice(0, 50_000))
        assert compute_aggregates(image) == compute_aggregates_summation(image)

    def test_empty_window(self):
        agg = compute_aggregates(traffic_image(PacketTrace.empty()))
        assert agg == compute_aggregates_summation(traffic_image(PacketTrace.empty()))
        assert agg.valid_packets == 0

    def test_as_row_keys(self):
        row = compute_aggregates(traffic_image(_tiny_window())).as_row()
        assert set(row) == {"valid_packets", "unique_links", "unique_sources", "unique_destinations"}

    def test_valid_packet_conservation(self, small_trace):
        """Σ_ij A_t(i,j) must equal N_V exactly (the paper's defining identity)."""
        window = small_trace.slice(0, 30_000)
        agg = compute_aggregates(traffic_image(window))
        assert agg.valid_packets == window.n_valid


class TestFigure1Quantities:
    def test_known_values(self):
        image = traffic_image(_tiny_window())
        q = network_quantities(image)
        np.testing.assert_array_equal(sorted(q["source_packets"].tolist()), [2, 4])
        np.testing.assert_array_equal(sorted(q["source_fanout"].tolist()), [1, 2])
        np.testing.assert_array_equal(sorted(q["link_packets"].tolist()), [1, 2, 3])
        np.testing.assert_array_equal(sorted(q["destination_fanin"].tolist()), [1, 2])
        np.testing.assert_array_equal(sorted(q["destination_packets"].tolist()), [1, 5])

    def test_all_quantities_present(self):
        q = network_quantities(traffic_image(_tiny_window()))
        assert set(q) == set(QUANTITY_NAMES)

    def test_packet_quantities_sum_to_nv(self, small_trace):
        image = traffic_image(small_trace.slice(0, 20_000))
        q = network_quantities(image)
        nv = image.n_valid
        assert q["source_packets"].sum() == nv
        assert q["destination_packets"].sum() == nv
        assert q["link_packets"].sum() == nv

    def test_fanout_fanin_sum_to_unique_links(self, small_trace):
        image = traffic_image(small_trace.slice(0, 20_000))
        q = network_quantities(image)
        assert q["source_fanout"].sum() == image.n_links
        assert q["destination_fanin"].sum() == image.n_links

    def test_fanout_bounded_by_packets(self, small_trace):
        image = traffic_image(small_trace.slice(0, 20_000))
        q = network_quantities(image)
        assert np.all(q["source_fanout"] <= q["source_packets"])
        assert np.all(q["destination_fanin"] <= q["destination_packets"])

    def test_empty_window(self):
        q = network_quantities(traffic_image(PacketTrace.empty()))
        assert all(v.size == 0 for v in q.values())

    def test_quantity_histograms(self):
        hists = quantity_histograms(traffic_image(_tiny_window()))
        assert hists["link_packets"].total == 3
        assert hists["source_packets"].dmax == 4
