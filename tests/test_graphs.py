"""Graph substrate: CSR, generators, datasets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import REAL_WORLD_GRAPHS, load_real_world
from repro.graphs.generators import kronecker, powerlaw, uniform_random


class TestCSR:
    def test_from_edge_list(self):
        g = CSRGraph.from_edge_list(4, [0, 0, 1, 3], [1, 2, 3, 0])
        assert g.num_vertices == 4
        assert g.num_edges == 4
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(2)) == []

    def test_adjacency_sorted_by_neighbor(self):
        g = CSRGraph.from_edge_list(3, [0, 0, 0], [2, 0, 1],
                                    remove_self_loops=False)
        assert list(g.neighbors(0)) == [0, 1, 2]

    def test_self_loops_removed(self):
        g = CSRGraph.from_edge_list(3, [0, 1], [0, 2])
        assert g.num_edges == 1

    def test_symmetrize(self):
        g = CSRGraph.from_edge_list(3, [0], [1], symmetrize=True)
        assert g.num_edges == 2
        assert list(g.neighbors(1)) == [0]

    def test_weights_follow_edges(self):
        g = CSRGraph.from_edge_list(3, [1, 0], [2, 1],
                                    weights=np.array([9, 7]))
        assert g.weights[g.index[0]] == 7
        assert g.weights[g.index[1]] == 9

    def test_sources(self):
        g = CSRGraph.from_edge_list(3, [0, 0, 2], [1, 2, 0])
        assert list(g.sources()) == [0, 0, 2]

    def test_transpose_reverses(self):
        g = CSRGraph.from_edge_list(3, [0, 1], [1, 2])
        gt = g.transpose()
        assert list(gt.neighbors(1)) == [0]
        assert list(gt.neighbors(2)) == [1]

    def test_edge_slices(self):
        g = CSRGraph.from_edge_list(4, [0, 0, 2, 2, 2], [1, 2, 0, 1, 3])
        idx, counts = g.edge_slices(np.array([2, 0]))
        assert list(counts) == [3, 2]
        assert list(g.edges[idx]) == [0, 1, 3, 1, 2]

    def test_edge_slices_empty_vertices(self):
        g = CSRGraph.from_edge_list(4, [0], [1])
        idx, counts = g.edge_slices(np.array([3]))
        assert idx.size == 0 and counts[0] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([5]))  # index end mismatch
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([7]))  # endpoint range
        with pytest.raises(ValueError, match="endpoint out of range"):
            CSRGraph.from_edge_list(4, np.array([-2, 0, 1]),
                                    np.array([1, 2, 3]))  # negative source
        with pytest.raises(ValueError, match="endpoint out of range"):
            CSRGraph.from_edge_list(4, np.array([4, 0, 1]),
                                    np.array([1, 2, 3]))  # source == V

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 50), st.integers(0, 200), st.integers(0, 1000))
    def test_roundtrip_property(self, nv, ne, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, nv, ne)
        dst = rng.integers(0, nv, ne)
        g = CSRGraph.from_edge_list(nv, src, dst, remove_self_loops=False)
        assert g.num_edges == ne
        # degree histogram matches the input multiset
        deg = np.bincount(src, minlength=nv)
        assert (g.out_degrees() == deg).all()


class TestGenerators:
    def test_kronecker_size(self):
        g = kronecker(10, 16, seed=0)
        assert g.num_vertices == 1024
        assert g.num_edges <= 1024 * 16  # self loops removed
        assert g.num_edges > 1024 * 12

    def test_kronecker_skew(self):
        g = kronecker(12, 16, seed=0)
        deg = g.out_degrees()
        assert deg.max() > 10 * max(deg.mean(), 1)  # power-law head

    def test_kronecker_weights(self):
        g = kronecker(8, 8, seed=0, weights_range=(1, 255))
        assert g.weights.min() >= 1 and g.weights.max() <= 255

    def test_kronecker_deterministic(self):
        a, b = kronecker(8, 8, seed=5), kronecker(8, 8, seed=5)
        assert (a.edges == b.edges).all()

    def test_kronecker_validates_probs(self):
        with pytest.raises(ValueError):
            kronecker(8, 8, a=0.9, b=0.1, c=0.1)

    def test_powerlaw_degree_target(self):
        for d in (4, 32):
            g = powerlaw(4096, d, seed=1)
            assert g.avg_degree == pytest.approx(d, rel=0.15)

    def test_powerlaw_fixed_edges_varied_degree(self):
        e = 1 << 16
        g1 = powerlaw(e // 4, 4, seed=1)
        g2 = powerlaw(e // 64, 64, seed=1)
        assert abs(g1.num_edges - g2.num_edges) < 0.1 * e

    def test_uniform_random(self):
        g = uniform_random(100, 1000, seed=0)
        assert g.num_vertices == 100
        deg = g.out_degrees()
        assert deg.max() < 5 * max(deg.mean(), 1)  # no heavy tail


class TestDatasets:
    def test_table4_specs(self):
        tg = REAL_WORLD_GRAPHS["twitch-gamers"]
        assert tg.num_vertices == 168_114
        assert tg.num_edges == 13_595_114
        assert tg.avg_degree == 81
        gp = REAL_WORLD_GRAPHS["gplus"]
        assert gp.avg_degree == 127

    def test_load_scaled_standin(self):
        g = load_real_world("twitch-gamers", scale=0.05)
        assert g.avg_degree == pytest.approx(81, rel=0.2)
        deg = g.out_degrees()
        assert deg.max() > 5 * deg.mean()  # still power law

    def test_unknown_graph(self):
        with pytest.raises(KeyError):
            load_real_world("facebook")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            load_real_world("gplus", scale=0)

    def test_load_for_mesh_scales_vertices(self):
        from repro.graphs.datasets import MESH_BASE_TILES, load_for_mesh
        spec = REAL_WORLD_GRAPHS["twitch-gamers"]
        small = load_for_mesh("twitch-gamers", 256, scale=0.01)
        # 4x the tiles of the base platform => 4x the vertices.
        assert MESH_BASE_TILES == 64
        assert small.num_vertices == int(spec.num_vertices * 0.01 * 4)
        assert small.avg_degree == pytest.approx(spec.avg_degree, rel=0.2)

    def test_load_for_mesh_base_matches_real_world(self):
        from repro.graphs.datasets import load_for_mesh
        a = load_for_mesh("gplus", 64, scale=0.02)
        b = load_real_world("gplus", scale=0.02)
        assert a.num_vertices == b.num_vertices
        assert a.num_edges == b.num_edges

    def test_load_for_mesh_rejects_bad_args(self):
        from repro.graphs.datasets import load_for_mesh
        with pytest.raises(KeyError):
            load_for_mesh("facebook", 64)
        with pytest.raises(ValueError):
            load_for_mesh("gplus", 0)
        with pytest.raises(ValueError):
            load_for_mesh("gplus", 64, scale=1.5)
