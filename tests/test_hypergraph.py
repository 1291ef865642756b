"""Hypergraph construction and propagation tests against brute-force oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hglearn.autodiff import ValidationError
from hglearn.hypergraph import (
    Hypergraph,
    knn_hyperedges,
    knn_neighbor_lists,
    propagation_operator,
)

from oracles import brute_force_knn, brute_force_operator, dense_edge_gram, loop_knn


class TestKnnHyperedges:
    def test_one_dimensional_tie_broken_to_lower_index(self):
        G = knn_hyperedges(np.array([[0.0], [1.0], [2.0], [10.0]]), 1)
        # node 1 ties between 0 and 2 at distance 1; lower index wins
        expected = np.array(
            [
                [1, 1, 0, 0],
                [1, 1, 1, 0],
                [0, 0, 1, 1],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(G.incidence, expected)
        assert np.array_equal(G.incidence.sum(axis=0), np.full(4, 2.0))

    def test_k_zero_gives_identity(self):
        X = np.random.default_rng(0).standard_normal((6, 3))
        G = knn_hyperedges(X, 0)
        assert np.array_equal(G.incidence, np.eye(6))

    def test_k_default_30_accepted(self):
        from hglearn.config import RunConfig

        assert RunConfig().k == 30

    def test_matches_brute_force_on_random_input(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 4))
        G = knn_hyperedges(X, 3)
        for i, neigh in enumerate(brute_force_knn(X, 3)):
            members = set(np.flatnonzero(G.incidence[:, i]))
            assert members == {i, *neigh}

    def test_column_sums_are_k_plus_one(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(5, 25))
            k = int(rng.integers(0, n - 1))
            X = rng.standard_normal((n, 3))
            G = knn_hyperedges(X, k)
            assert G.incidence.shape == (n, n)
            assert np.array_equal(G.incidence.sum(axis=0), np.full(n, k + 1.0))
            # the centroid node always belongs to its own hyperedge
            assert np.array_equal(np.diag(G.incidence), np.ones(n))

    def test_pairwise_mode_emits_two_node_edges(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((7, 2))
        G = knn_hyperedges(X, 2, pairwise=True)
        assert G.num_edges == 7 * 2
        assert np.array_equal(G.incidence.sum(axis=0), np.full(14, 2.0))
        neigh = brute_force_knn(X, 2)
        for i in range(7):
            for r in range(2):
                col = G.incidence[:, i * 2 + r]
                assert set(np.flatnonzero(col)) == {i, neigh[i][r]}

    def test_k_too_large_rejected(self):
        with pytest.raises(ValidationError, match="k"):
            knn_hyperedges(np.zeros((4, 2)), 4)

    def test_empty_features_rejected(self):
        with pytest.raises(ValidationError):
            knn_hyperedges(np.zeros((0, 2)), 1)

    def test_non_finite_features_rejected(self):
        X = np.ones((4, 2))
        X[1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            knn_hyperedges(X, 1)


class TestPropagationOperator:
    def test_identity_incidence_gives_identity(self):
        G = Hypergraph.from_incidence(np.eye(5))
        assert np.allclose(propagation_operator(G), np.eye(5), atol=1e-15)

    def test_two_nodes_one_hyperedge(self):
        G = Hypergraph.from_incidence(np.array([[1.0], [1.0]]))
        assert np.allclose(propagation_operator(G), np.full((2, 2), 0.5), atol=1e-15)

    def test_matches_brute_force_on_random_hypergraphs(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            e = int(rng.integers(1, 7))
            H = (rng.random((n, e)) < 0.5).astype(float)
            for c in range(e):
                if H[:, c].sum() == 0:
                    H[int(rng.integers(0, n)), c] = 1.0
            w = rng.uniform(0.5, 2.0, e)
            G = Hypergraph.from_incidence(H, w)
            expected = brute_force_operator(H, w)
            assert np.abs(propagation_operator(G) - expected).max() <= 1e-10

    def test_symmetry_and_isolated_node_rows(self):
        rng = np.random.default_rng(8)
        H = (rng.random((7, 5)) < 0.4).astype(float)
        H[3, :] = 0.0  # isolate node 3
        for c in range(5):
            if H[:, c].sum() == 0:
                H[0, c] = 1.0
        P = propagation_operator(Hypergraph.from_incidence(H))
        assert np.abs(P - P.T).max() <= 1e-12
        assert np.array_equal(P[3], np.zeros(7))
        assert np.array_equal(P[:, 3], np.zeros(7))
        degrees = H.sum(axis=1)
        for i in range(7):
            if degrees[i] > 0:
                assert P[i].any()

    def test_edge_gram_computed_once_and_read_only(self):
        rng = np.random.default_rng(5)
        H = (rng.random((6, 4)) < 0.5).astype(float)
        H[0] = 1.0  # every hyperedge has a member
        w = rng.uniform(0.5, 2.0, 4)
        G = Hypergraph.from_incidence(H, w)
        gram, dv = G.edge_gram
        assert G.edge_gram[0] is gram and G.edge_gram[1] is dv
        np.testing.assert_allclose(gram, H @ np.diag(w / H.sum(axis=0)) @ H.T,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(dv, H @ w, rtol=0, atol=1e-12)
        for array in (gram, dv):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_edgeless_graph_gives_zero_operator(self):
        # pairwise k=0 hyperedges: no edges, every degree 0
        G = Hypergraph(4, [], [])
        assert np.array_equal(propagation_operator(G), np.zeros((4, 4)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            X = rng.standard_normal((8, 3))
            G = knn_hyperedges(X, 2)
            P = propagation_operator(G)
            perm = rng.permutation(8)
            Gp = Hypergraph.from_incidence(G.incidence[perm], G.edge_weights)
            Pp = propagation_operator(Gp)
            assert np.allclose(Pp, P[np.ix_(perm, perm)], atol=1e-12)


class TestHypergraphValidation:
    def test_non_binary_incidence_rejected(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            Hypergraph.from_incidence(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(ValidationError, match="at least one node"):
            Hypergraph.from_incidence(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            Hypergraph.from_incidence(np.ones((2, 1)), [0.0])

    def test_incidence_is_immutable(self):
        G = Hypergraph.from_incidence(np.ones((2, 1)))
        for array in (G.nodes, G.edges, G.edge_weights):
            with pytest.raises(ValueError):
                array[0] = 0
        view = G.incidence
        view[0, 0] = 0.0  # a fresh copy: the hypergraph does not change
        assert np.array_equal(G.incidence, np.ones((2, 1)))

    def test_equality_and_hashing_are_by_identity(self):
        G = Hypergraph.from_incidence(np.ones((2, 1)))
        same_members = Hypergraph(G.num_nodes, G.nodes, G.edges, G.edge_weights)
        assert G == G and G != same_members
        assert hash(G) == hash(G)
        assert len({G, same_members, G}) == 2


@st.composite
def member_sets(draw, max_nodes=9, max_edges=30):
    """(n, member list per hyperedge, weights or None): mixed sizes, maybe one of all n nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    members = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1).map(sorted),
                            max_size=max_edges))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), list(range(n)))
    if n > 1 and draw(st.booleans()):  # insert_prompt's shape: the first d nodes and one more
        d = draw(st.integers(1, n - 1))
        members += [list(range(d)) + [t] for t in range(d, n)]
    weights = draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=len(members),
                                        max_size=len(members)))
    return n, members, weights


def member_pairs(members, seed):
    """(nodes, edges) of the member lists, in a shuffled order."""
    nodes = np.array([v for m in members for v in m], dtype=np.intp)
    edges = np.repeat(np.arange(len(members)), [len(m) for m in members])
    order = np.random.default_rng(seed).permutation(nodes.size)
    return nodes[order], edges[order]


def dense_incidence(n, members):
    H = np.zeros((n, len(members)))
    for e, m in enumerate(members):
        H[m, e] = 1.0
    return H


# 5 nodes: at most 25 pairs per bincount call, and nine 3-node hyperedges have 81
_SEVERAL_CALLS = (5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]] * 3 + [[0, 1], [0, 1, 2, 3, 4]], None)
# 7 data nodes and 2 tokens, each token's insertion hyperedge holding all 7 data
# nodes: 8 members of 9 nodes, so each fills a bincount call alone
_INSERTED = (9, [[0, 1, 2], [2, 3], [4, 5, 6], [7, 8], [0, 1, 2, 3, 4, 5, 6, 7],
                 [0, 1, 2, 3, 4, 5, 6, 8]], [0.5, 1.0, 2.0, 3.0, 1.0, 1.5])


class TestMemberPairs:
    @settings(max_examples=150, deadline=None)
    @given(graph=member_sets(), seed=st.integers(0, 2**32 - 1))
    def test_from_incidence_round_trips_the_members(self, graph, seed):
        n, members, weights = graph
        G = Hypergraph(n, *member_pairs(members, seed), weights)
        order = np.lexsort((G.nodes, G.edges))  # sorted by hyperedge, then node
        assert np.array_equal(order, np.arange(G.nodes.size))
        assert np.array_equal(G.incidence, dense_incidence(n, members))
        back = Hypergraph.from_incidence(G.incidence, G.edge_weights)
        assert back.num_nodes == n
        for name in ("nodes", "edges", "edge_weights"):
            assert np.array_equal(getattr(back, name), getattr(G, name)), name

    @settings(max_examples=150, deadline=None)
    @given(graph=member_sets(), seed=st.integers(0, 2**32 - 1))
    @example(graph=_SEVERAL_CALLS, seed=0)
    @example(graph=_INSERTED, seed=1)
    def test_edge_gram_matches_the_dense_oracle(self, graph, seed):
        n, members, weights = graph
        G = Hypergraph(n, *member_pairs(members, seed), weights)
        w = np.ones(len(members)) if weights is None else np.array(weights)
        for got, expected in zip(G.edge_gram, dense_edge_gram(dense_incidence(n, members), w)):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max(initial=0.0) <= 1e-13 * np.abs(expected).max(
                initial=0.0)

    def test_edge_gram_spans_several_bincount_calls(self, monkeypatch):
        n, members, _ = _SEVERAL_CALLS
        calls = []
        bincount = np.bincount

        def counted(*args, **kwargs):
            calls.append(np.size(args[0]))
            return bincount(*args, **kwargs)
        G = Hypergraph(n, *member_pairs(members, 0))
        monkeypatch.setattr(np, "bincount", counted)
        gram, _ = G.edge_gram
        monkeypatch.undo()
        # entries per call: the hyperedge sizes over all 34 pairs; the 2-node
        # edge; the nine 3-node edges two at a time (9 pairs each, 25 // 9 = 2
        # per call); no call for the 5-node edge, which would fill one alone
        # and is added as a dense block; the degrees over all pairs
        assert calls == [34, 4, 18, 18, 18, 18, 9, 34]
        expected, _ = dense_edge_gram(dense_incidence(n, members), np.ones(len(members)))
        assert np.abs(gram - expected).max() <= 1e-13 * np.abs(expected).max()

    _CORRUPTIONS = {
        "node-negative": (lambda n, v, e, w: (np.append(-1, v[1:]), e, w),
                          r"member nodes must lie in \[0, "),
        "node-beyond": (lambda n, v, e, w: (np.append(n, v[1:]), e, w),
                        r"member nodes must lie in \[0, "),
        "duplicate-pair": (lambda n, v, e, w: (np.append(v, v[0]), np.append(e, e[0]), w),
                           r"duplicate \(node, hyperedge\) pair"),
        "empty-hyperedge": (lambda n, v, e, w: (v, e + (e >= e[0]), np.append(w, 1.0)),
                            "every hyperedge must contain at least one node"),
        "extra-weight": (lambda n, v, e, w: (v, e, np.append(w, 1.0)),
                         "every hyperedge must contain at least one node"),
        "missing-weight": (lambda n, v, e, w: (v, e, w[:-1]),
                           r"hyperedge indices must lie in \[0, \d+\), one per edge weight"),
        "length-mismatch": (lambda n, v, e, w: (v[1:], e, w), "member nodes for"),
        "negative-hyperedge": (lambda n, v, e, w: (v, np.where(e == e[0], -1, e), w),
                               r"hyperedge indices must lie in \[0, "),
        "float-indices": (lambda n, v, e, w: (v.astype(float), e, w), "integer indices"),
        "two-d-nodes": (lambda n, v, e, w: (v[:, None], e, w), "1-D array"),
        "zero-weight": (lambda n, v, e, w: (v, e, np.where(np.arange(w.size) == e[0], 0.0, w)),
                        "edge weights must be positive"),
    }

    @settings(max_examples=200, deadline=None)
    @given(graph=member_sets(), seed=st.integers(0, 2**32 - 1),
           corruption=st.sampled_from(sorted(_CORRUPTIONS)))
    def test_malformed_members_rejected(self, graph, seed, corruption):
        n, members, weights = graph
        if not members:  # a corruption needs a pair to work on
            members, weights = [[0]], None
        nodes, edges = member_pairs(members, seed)
        w = np.ones(len(members)) if weights is None else np.array(weights)
        corrupt, message = self._CORRUPTIONS[corruption]
        with pytest.raises(ValidationError, match=message):
            Hypergraph(n, *corrupt(n, nodes, edges, w))

    def test_incidence_is_built_on_each_access_and_no_field_is_node_by_hyperedge(self):
        G = knn_hyperedges(np.random.default_rng(4).standard_normal((9, 2)), 2, pairwise=True)
        n, e = G.num_nodes, G.num_edges  # 9 nodes, 18 hyperedges
        assert G.incidence is not G.incidence
        assert np.array_equal(G.incidence, G.incidence)
        assert [f.name for f in dataclasses.fields(G)] == ["num_nodes", "nodes", "edges",
                                                           "edge_weights"]
        G.edge_gram  # cached on the instance, next to the fields
        for name, value in vars(G).items():
            for array in value if isinstance(value, tuple) else (value,):
                assert np.size(array) < n * e, name
        assert G.nodes.size == G.edges.size == 2 * e


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    k=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_knn_column_sum_property(n, k, seed):
    if k >= n:
        k = n - 1
    X = np.random.default_rng(seed).standard_normal((n, 2))
    G = knn_hyperedges(X, k)
    assert np.array_equal(G.incidence.sum(axis=0), np.full(n, k + 1.0))


# where the features sit: the 1e8 offset leaves ~1e-8 of each coordinate's
# precision to its spread, and at 1e-160 every squared distance is subnormal
_PLACEMENTS = {"as-is": lambda X: X, "offset-1e8": lambda X: X + 1e8,
               "scale-1e-160": lambda X: X * 1e-160}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    dim=st.sampled_from([1, 2, 5, 9, 17, 130]),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
    rounded=st.booleans(),
    duplicated=st.booleans(),
    placement=st.sampled_from(sorted(_PLACEMENTS)),
)
@example(n=1, dim=3, k_frac=0.0, seed=0, rounded=False, duplicated=False, placement="as-is")
@example(n=12, dim=3, k_frac=0.0, seed=1, rounded=True, duplicated=True, placement="as-is")
@example(n=12, dim=9, k_frac=1.0, seed=2, rounded=True, duplicated=True, placement="as-is")
@example(n=30, dim=17, k_frac=0.3, seed=3, rounded=False, duplicated=False,
         placement="offset-1e8")
# two that a margin without its subnormal term gets wrong
@example(n=20, dim=9, k_frac=0.5, seed=0, rounded=True, duplicated=False,
         placement="scale-1e-160")
@example(n=20, dim=130, k_frac=0.5, seed=0, rounded=False, duplicated=False,
         placement="scale-1e-160")
def test_knn_lists_equal_the_loop(n, dim, k_frac, seed, rounded, duplicated, placement):
    """Equal lists, not close ones: same neighbors, same order, ties to the lower index."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    if rounded:  # ties
        X = np.round(X, 1)
    if duplicated:
        X = X[rng.integers(0, max(1, n // 3), n)]
    X = _PLACEMENTS[placement](X)
    k = min(int(k_frac * n), n - 1)  # k = 0 through k = n - 1
    assert np.array_equal(knn_neighbor_lists(X, k), loop_knn(X, k))


@pytest.mark.parametrize("rounded", [False, True])
def test_knn_lists_equal_the_loop_across_row_blocks(rounded):
    # 700 rows span three blocks of ranked rows; rounding to one decimal in
    # three dimensions leaves many ties at every block boundary
    X = np.random.default_rng(11).standard_normal((700, 3))
    if rounded:
        X = np.round(X, 1)
    for k in (1, 30, 699):
        assert np.array_equal(knn_neighbor_lists(X, k), loop_knn(X, k))


@pytest.mark.parametrize("X", [
    np.random.default_rng(2).standard_normal((20, 4)) * 1e160,
    np.array([[0.0], [1.5e154]]),  # 2.25e308 overflows
    np.array([[-1e308], [1e308]]),  # so does the span itself
], ids=["scaled-1e160", "one-pair", "span"])
def test_knn_rejects_overflowing_squared_distances(X):
    with pytest.raises(ValidationError, match="knn: .*overflow float64"):
        knn_neighbor_lists(X, 1)


def test_knn_accepts_squared_distances_below_an_eighth_of_the_largest_float():
    X = np.array([[0.0], [4e153], [1e153], [2e153]])  # (4e153)^2 = 1.6e307
    assert np.array_equal(knn_neighbor_lists(X, 2), loop_knn(X, 2))
