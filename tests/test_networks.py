"""Directed graph generation and treated-degree computation."""

import numpy as np
import pytest

from lue.exposure import apply_exposure_mapping
from lue.networks import Network, gen_erdos_renyi_directed, gen_k_regular_directed
from lue.simulation import exposure_slots, slot_coefficients


def three_cycle():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = a[1, 2] = a[2, 0] = 1
    return Network(a)


def treated_degree(net, z):
    """Treated in-neighbors of every unit, read from both places the program computes them.

    The exposure mapping gives (d, z) for one unit; the simulation reads d from
    the slot 2d + z of the whole allocation.  The two must agree.
    """
    z = np.asarray(z)
    units = np.arange(net.n)
    mapped = np.array([apply_exposure_mapping(net, z, i)[0] for i in units])
    slots = exposure_slots(z[None, :], slot_coefficients(net, units))[0]
    np.testing.assert_array_equal(slots % 2, z)
    np.testing.assert_array_equal(slots // 2, mapped)
    return mapped


class TestNetwork:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            Network(np.eye(2, dtype=int))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Network(np.array([[0, 2], [0, 0]]))

    def test_degrees(self):
        net = three_cycle()
        np.testing.assert_array_equal(net.in_degrees, [1, 1, 1])

    def test_cached_in_degrees_are_column_sums_and_read_only(self):
        """Degrees are summed once at construction; neither they nor the edges can drift."""
        net = gen_erdos_renyi_directed(30, 0.1, seed=4)
        assert (net.in_degrees == 0).any()
        np.testing.assert_array_equal(net.in_degrees, net.adjacency.sum(axis=0))
        with pytest.raises(ValueError, match="read-only"):
            net.in_degrees[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            net.adjacency[0, 1] = 1 - net.adjacency[0, 1]

    def test_caller_array_stays_writable(self):
        a = np.zeros((3, 3), dtype=np.int64)
        Network(a)
        a[0, 1] = 1
        assert a.flags.writeable


class TestKRegular:
    def test_three_nodes_complete_exchange(self):
        net = gen_k_regular_directed(3, 2, seed=0)
        expected = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        np.testing.assert_array_equal(net.adjacency, expected)

    def test_forty_nodes_in_degree_four(self):
        net = gen_k_regular_directed(40, 4, seed=1)
        np.testing.assert_array_equal(net.in_degrees, np.full(40, 4))

    def test_deterministic(self):
        a = gen_k_regular_directed(12, 3, seed=9)
        b = gen_k_regular_directed(12, 3, seed=9)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            gen_k_regular_directed(4, 4, seed=0)
        with pytest.raises(ValueError):
            gen_k_regular_directed(4, 0, seed=0)

    def test_column_sums_across_instances(self):
        for seed in range(5):
            net = gen_k_regular_directed(15, 5, seed=seed)
            np.testing.assert_array_equal(net.adjacency.sum(axis=0), np.full(15, 5))


class TestErdosRenyi:
    def test_empty_and_complete(self):
        empty = gen_erdos_renyi_directed(5, 0.0, seed=0)
        assert empty.adjacency.sum() == 0
        full = gen_erdos_renyi_directed(5, 1.0, seed=0)
        np.testing.assert_array_equal(full.in_degrees, np.full(5, 4))

    def test_mean_in_degree(self):
        """Mean in-degree of ER(40, 0.25) sits within 3 standard errors of 9.75."""
        net = gen_erdos_renyi_directed(40, 0.25, seed=11)
        se = np.sqrt(39 * 0.25 * 0.75 / 40)
        assert abs(net.in_degrees.mean() - 9.75) < 3 * se

    def test_deterministic(self):
        a = gen_erdos_renyi_directed(20, 0.3, seed=4)
        b = gen_erdos_renyi_directed(20, 0.3, seed=4)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)


@pytest.mark.parametrize("call, message", [
    (lambda: Network(np.zeros((2, 3), dtype=int)),
     r"^adjacency must be square, got shape \(2, 3\)$"),
    (lambda: gen_erdos_renyi_directed(5, 1.5, seed=0),
     r"^edge probability must be in \[0, 1\], got 1\.5$"),
    (lambda: gen_erdos_renyi_directed(5, -0.1, seed=0),
     r"^edge probability must be in \[0, 1\], got -0\.1$"),
], ids=["non_square", "p_edge_above", "p_edge_below"])
def test_rejected_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestTreatedDegree:
    def test_all_zeros(self):
        net = three_cycle()
        np.testing.assert_array_equal(treated_degree(net, np.zeros(3, dtype=int)), [0, 0, 0])

    def test_cycle_example(self):
        net = three_cycle()
        np.testing.assert_array_equal(treated_degree(net, np.array([1, 1, 0])), [0, 1, 1])

    def test_all_ones_gives_in_degrees(self):
        net = gen_erdos_renyi_directed(10, 0.5, seed=2)
        np.testing.assert_array_equal(treated_degree(net, np.ones(10, dtype=int)),
                                      net.in_degrees)

    def test_bounded_by_in_degree(self):
        rng = np.random.default_rng(5)
        net = gen_erdos_renyi_directed(12, 0.4, seed=6)
        for _ in range(25):
            z = rng.integers(0, 2, size=12)
            assert (treated_degree(net, z) <= net.in_degrees).all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            treated_degree(three_cycle(), np.array([1, 0]))
