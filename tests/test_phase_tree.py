"""Properties of the spanning-tree phase solver over random edge matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripure import AlgorithmError, ContractError, PhaseGraphDisconnected, solve_phases

from oracles import solve_phases_heap

STRATEGIES = ("max_weight", "bfs")


def wrap(angles):
    return (angles + np.pi) % (2.0 * np.pi) - np.pi


@st.composite
def edge_graphs(draw):
    """Shape, rng, edge density and rounded magnitudes of a random bipartite graph.

    Magnitudes are multiples of 10^-decimals in (0, 1], so ties are common
    and decimals = 0 makes every edge equally heavy.
    """
    r_a = draw(st.integers(1, 6))
    r_c = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    scale = 10 ** draw(st.integers(0, 2))
    mags = rng.integers(1, scale + 1, size=(r_a, r_c)) / scale
    return r_a, r_c, rng, density, mags


def consistent_weights(mask, mags, rng):
    r_a, r_c = mask.shape
    alpha = rng.uniform(-np.pi, np.pi, r_a)
    gamma = rng.uniform(-np.pi, np.pi, r_c)
    return np.where(mask, mags * np.exp(1j * (alpha[:, None] - gamma[None, :])), 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_graphs())
def test_consistent_connected_graphs_solve_exactly(graph):
    r_a, r_c, rng, density, mags = graph
    # A hub column joined to every a-node, and every other column joined to
    # some a-node, keeps the graph connected; extra edges add cycles.
    mask = rng.random((r_a, r_c)) < density
    mask[:, rng.integers(r_c)] = True
    mask[rng.integers(r_a, size=r_c), np.arange(r_c)] = True
    w = consistent_weights(mask, mags, rng)
    root = int(np.argmax(np.abs(w).sum(axis=0)))
    for strategy in STRATEGIES:
        sol = solve_phases(w, tree_strategy=strategy)
        assert sol.c_phases[root] == 0.0
        violation = wrap(sol.a_phases[:, None] - sol.c_phases[None, :] - np.angle(w))
        assert np.abs(violation[mask]).max() <= 1e-12
        assert sol.cycle_residual <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_graphs())
def test_disconnected_graphs_refused_alike(graph):
    r_a, r_c, rng, density, mags = graph
    # Two node groups with edges only inside each group; both groups are
    # nonempty, so no spanning tree exists.
    group_a = rng.integers(2, size=r_a)
    group_c = rng.integers(2, size=r_c)
    if np.all(group_a == group_c[0]) and np.all(group_c == group_c[0]):
        group_c[0] ^= 1
    mask = (rng.random((r_a, r_c)) < density) & (group_a[:, None] == group_c[None, :])
    w = consistent_weights(mask, mags, rng)
    messages = []
    for strategy in STRATEGIES:
        with pytest.raises(PhaseGraphDisconnected) as excinfo:
            solve_phases(w, tree_strategy=strategy)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_tie_case_trees_differ():
    # Column sums tie, so c[0] is the root.  max_weight follows the heavy
    # edge (1, 1) and leaves (1, 0) redundant; bfs takes (1, 0) from the
    # root and leaves (1, 1) redundant.  The 1e-7 rad cycle defect on
    # (1, 1) makes the two trees visible in a_phases[1].
    mags = np.array([[1.0, 0.5], [0.5, 1.0]])
    args = np.array([[0.3, -1.1], [2.0, 0.6 + 1e-7]])
    w = mags * np.exp(1j * args)
    expected = {
        "max_weight": ([0.3, 2.0000001000000003], [0.0, 1.4000000000000001]),
        "bfs": ([0.3, 2.0], [0.0, 1.4000000000000001]),
    }
    for strategy, (a_phases, c_phases) in expected.items():
        sol = solve_phases(w, tree_strategy=strategy)
        assert sol.a_phases.tolist() == a_phases
        assert sol.c_phases.tolist() == c_phases
        assert sol.cycle_residual == 1.0000000028043132e-07


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_a_contract_error(strategy, bad):
    # a NaN or inf weight is bad input, not a missing edge
    w = np.ones((2, 2), dtype=complex)
    w[0, 1] = bad
    with pytest.raises(ContractError, match="non-finite"):
        solve_phases(w, tree_strategy=strategy)


def planted_weights(rng, r_a, r_c, density, scale, consistent):
    """Edge weights with tied, zero and unusably weak magnitudes and consistent or random phases.

    Magnitudes are multiples of 1/scale in [0, 1]; about one edge in ten is
    set to 1e-9, below the default ``edge_tol`` times any nonzero peak.
    """
    mags = rng.integers(0, scale + 1, size=(r_a, r_c)) / scale
    mags[rng.random((r_a, r_c)) >= density] = 0.0
    mags[rng.random((r_a, r_c)) < 0.1] = 1e-9
    if consistent:
        alpha = rng.uniform(-np.pi, np.pi, r_a)
        gamma = rng.uniform(-np.pi, np.pi, r_c)
        args = alpha[:, None] - gamma[None, :]
    else:
        args = rng.uniform(-np.pi, np.pi, (r_a, r_c))
    return mags * np.exp(1j * args)


def assert_matches_heap(w, strategy, phase_tol):
    """solve_phases gives the heap traversal's phases, residual or error, bit for bit."""
    try:
        a_phases, c_phases, cycle_residual = solve_phases_heap(
            w, phase_tol=phase_tol, tree_strategy=strategy
        )
    except AlgorithmError as exc:
        with pytest.raises(AlgorithmError) as excinfo:
            solve_phases(w, phase_tol=phase_tol, tree_strategy=strategy)
        assert type(excinfo.value) is type(exc)
        assert str(excinfo.value) == str(exc)
        return
    sol = solve_phases(w, phase_tol=phase_tol, tree_strategy=strategy)
    assert sol.a_phases.tobytes() == a_phases.tobytes()
    assert sol.c_phases.tobytes() == c_phases.tobytes()
    assert sol.cycle_residual == cycle_residual


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.sampled_from([1, 10, 100]),
    st.booleans(),
    st.sampled_from([1e-6, 10.0]),
)
def test_tree_matches_heap_traversal(r_a, r_c, seed, density, scale, consistent, phase_tol):
    # phase_tol = 10 rad exceeds any wrapped violation, so random phases
    # return a solution and expose which tree was grown.
    w = planted_weights(np.random.default_rng(seed), r_a, r_c, density, scale, consistent)
    for strategy in STRATEGIES:
        assert_matches_heap(w, strategy, phase_tol)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("consistent", [True, False])
@pytest.mark.parametrize("shape", [(4, 32), (32, 4), (16, 16), (32, 32), (64, 64)])
def test_large_trees_match_heap_traversal(shape, consistent, strategy):
    rng = np.random.default_rng([0, *shape, consistent])
    w = planted_weights(rng, *shape, density=1.0, scale=10, consistent=consistent)
    # The planted graph is connected, so whole trees are compared, not errors.
    solve_phases_heap(w, phase_tol=10.0, tree_strategy=strategy)
    assert_matches_heap(w, strategy, phase_tol=10.0)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("consistent", [True, False])
@pytest.mark.parametrize("shape", [(1, 64), (64, 1)])
def test_thin_trees_match_heap_traversal(shape, consistent, strategy):
    # Every edge of a one-row or one-column graph is a bridge, so the planted
    # zero and weak edges disconnect it: the refusal is compared first, then
    # the whole tree once those edges are given a usable weight.
    rng = np.random.default_rng([0, *shape, consistent])
    w = planted_weights(rng, *shape, density=1.0, scale=10, consistent=consistent)
    with pytest.raises(PhaseGraphDisconnected):
        solve_phases_heap(w, phase_tol=10.0, tree_strategy=strategy)
    assert_matches_heap(w, strategy, phase_tol=10.0)
    w = np.where(np.abs(w) < 0.05, 0.5j, w)
    solve_phases_heap(w, phase_tol=10.0, tree_strategy=strategy)
    assert_matches_heap(w, strategy, phase_tol=10.0)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("consistent", [True, False])
def test_tied_trees_match_heap_traversal(consistent, strategy):
    # scale = 1 makes every usable magnitude |e^{i theta}|, which rounds to
    # one of a few floats, so most max_weight steps are decided by the
    # lowest-(i, k) tie rule.
    rng = np.random.default_rng([1, 16, 16, consistent])
    w = planted_weights(rng, 16, 16, density=1.0, scale=1, consistent=consistent)
    mags = np.abs(w)
    _, counts = np.unique(mags[mags > 1e-3], return_counts=True)
    assert counts.max() > 64
    solve_phases_heap(w, phase_tol=10.0, tree_strategy=strategy)
    assert_matches_heap(w, strategy, phase_tol=10.0)
