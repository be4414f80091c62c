"""Tests for repro.parallel (simulated comm, cost models, decomposition)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import StatusBroadcast
from repro.errors import CommunicatorError, ConfigurationError
from repro.parallel.comm import SimComm
from repro.parallel.cost_model import CommCostModel, ThreadingModel
from repro.parallel.decomposition import BlockDecomposition, processor_grid


class TestCommCostModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CommCostModel(latency_s=-1)
        with pytest.raises(ConfigurationError):
            CommCostModel(bandwidth_bytes_per_s=0)

    def test_point_to_point_linear_in_bytes(self):
        model = CommCostModel(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert model.point_to_point(0) == pytest.approx(1e-6)
        assert model.point_to_point(10**9) == pytest.approx(1.000001)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            CommCostModel().point_to_point(-1)

    def test_tree_stages(self):
        model = CommCostModel()
        assert model.tree_stages(1) == 0
        assert model.tree_stages(2) == 1
        assert model.tree_stages(8) == 3
        assert model.tree_stages(27) == 5

    def test_broadcast_free_on_single_rank(self):
        assert CommCostModel().broadcast(1024, 1) == 0.0

    def test_allreduce_is_two_broadcasts(self):
        model = CommCostModel()
        assert model.allreduce(8, 16) == pytest.approx(
            2 * model.broadcast(8, 16)
        )

    @given(st.integers(1, 512), st.integers(1, 512))
    @settings(max_examples=40)
    def test_broadcast_monotone_in_ranks(self, a, b):
        model = CommCostModel()
        lo, hi = sorted((a, b))
        assert model.broadcast(64, lo) <= model.broadcast(64, hi)


class TestThreadingModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThreadingModel(parallel_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ThreadingModel().speedup(0)
        with pytest.raises(ConfigurationError):
            ThreadingModel().scaled_time(-1.0, 2)

    def test_single_thread_identity(self):
        assert ThreadingModel().speedup(1) == pytest.approx(1.0)

    def test_speedup_bounded_by_amdahl(self):
        model = ThreadingModel(parallel_fraction=0.95)
        assert model.speedup(4) < 4
        assert model.speedup(10**6) == pytest.approx(20.0, rel=0.01)

    def test_scaled_time_decreases(self):
        model = ThreadingModel()
        assert model.scaled_time(10.0, 4) < 10.0


class TestSimComm:
    def test_size_validation(self):
        with pytest.raises(CommunicatorError):
            SimComm(0)

    def test_broadcast_returns_its_payload(self):
        payload = {"x": 1}
        assert SimComm(4).broadcast(payload) is payload

    def test_broadcast_keeps_no_reference_to_its_payload(self):
        comm = SimComm(8)
        payload = StatusBroadcast(1, predicted_value=0.5, wavefront_rank=3)
        ref = weakref.ref(payload)
        comm.broadcast(payload)
        del payload
        gc.collect()
        assert ref() is None
        assert comm.broadcast_count == 1

    def test_broadcast_charges_time(self):
        comm = SimComm(8)
        comm.broadcast("payload")
        assert comm.charged_seconds > 0
        assert comm.broadcast_count == 1

    def test_single_rank_broadcast_free(self):
        comm = SimComm(1)
        comm.broadcast("payload")
        assert comm.charged_seconds == 0.0

    def test_bad_root_rejected(self):
        with pytest.raises(CommunicatorError):
            SimComm(2).broadcast("x", root=5)

    def test_allreduce_sum(self):
        comm = SimComm(4)
        assert comm.allreduce(2.0, "sum") == 8.0
        assert comm.allreduce(2.0, "max") == 2.0
        assert comm.allreduce_count == 2

    def test_allreduce_bad_op(self):
        with pytest.raises(CommunicatorError):
            SimComm(2).allreduce(1.0, "xor")

    def test_allreduce_ndarray(self):
        comm = SimComm(4)
        arr = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(comm.allreduce(arr, "sum"), arr * 4)
        np.testing.assert_array_equal(comm.allreduce(arr, "max"), arr)
        out = comm.allreduce(arr, "min")
        assert out is not arr  # fresh array, not an alias
        assert comm.allreduce_count == 3

    def test_allreduce_cost_scales_with_payload_bytes(self):
        model = CommCostModel()
        comm = SimComm(8, model)
        comm.allreduce(2.0)
        scalar_cost = comm.charged_seconds
        assert scalar_cost == pytest.approx(model.allreduce(8, 8))
        comm.reset_accounting()
        big = np.zeros(1 << 16)
        comm.allreduce(big, "sum")
        assert comm.charged_seconds == pytest.approx(
            model.allreduce(big.nbytes, 8)
        )
        assert comm.charged_seconds > scalar_cost

    def test_allreduce_array_reduces_per_rank_contributions(self):
        comm = SimComm(3)
        parts = [np.array([1.0, 0.0]), np.array([0.0, 2.0]),
                 np.array([4.0, 8.0])]
        np.testing.assert_array_equal(
            comm.allreduce_array(parts, "sum"), [5.0, 10.0]
        )
        np.testing.assert_array_equal(
            comm.allreduce_array(parts, "max"), [4.0, 8.0]
        )
        np.testing.assert_array_equal(
            comm.allreduce_array(parts, "min"), [0.0, 0.0]
        )
        assert comm.charged_seconds > 0

    def test_allreduce_array_validates_contributions(self):
        comm = SimComm(2)
        with pytest.raises(CommunicatorError):
            comm.allreduce_array([np.zeros(2)])  # wrong rank count
        with pytest.raises(CommunicatorError):
            comm.allreduce_array([np.zeros(2), np.zeros(3)])  # shapes
        with pytest.raises(CommunicatorError):
            comm.allreduce_array([np.zeros(2), np.zeros(2)], "xor")

    def test_allreduce_array_single_producer_semantics(self):
        comm = SimComm(4)
        np.testing.assert_array_equal(
            comm.allreduce_array(np.array([1.0, 2.0])), [4.0, 8.0]
        )

    def test_barrier_charges(self):
        comm = SimComm(4)
        comm.barrier()
        assert comm.charged_seconds > 0

    def test_reset_accounting_zeroes_the_ledger(self):
        comm = SimComm(2)
        comm.broadcast("x")
        comm.allreduce(1.0)
        comm.reset_accounting()
        assert comm.charged_seconds == 0.0
        assert comm.broadcast_count == 0
        assert comm.allreduce_count == 0


class TestProcessorGrid:
    @pytest.mark.parametrize(
        "ranks,expected",
        [(1, (1, 1, 1)), (8, (2, 2, 2)), (27, (3, 3, 3)), (64, (4, 4, 4))],
    )
    def test_perfect_cubes(self, ranks, expected):
        assert processor_grid(ranks) == expected

    def test_non_cube_factorisation(self):
        grid = processor_grid(12)
        assert np.prod(grid) == 12

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            processor_grid(0)


class TestBlockDecomposition:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BlockDecomposition(0, 4)
        with pytest.raises(ConfigurationError):
            BlockDecomposition(4, 0)
        with pytest.raises(ConfigurationError):
            BlockDecomposition(4, 2).owner(4)
        with pytest.raises(ConfigurationError):
            BlockDecomposition(4, 2).slice_for(2)

    @given(st.integers(1, 200), st.integers(1, 16))
    @settings(max_examples=60)
    def test_counts_partition_items(self, n_items, n_ranks):
        decomp = BlockDecomposition(n_items, n_ranks)
        counts = decomp.counts()
        assert sum(counts) == n_items
        assert max(counts) - min(counts) <= 1

    @given(st.integers(1, 100), st.integers(1, 8))
    @settings(max_examples=60)
    def test_owner_consistent_with_slices(self, n_items, n_ranks):
        decomp = BlockDecomposition(n_items, n_ranks)
        for rank in range(n_ranks):
            s = decomp.slice_for(rank)
            for index in range(s.start, s.stop):
                assert decomp.owner(index) == rank

    def test_owners_vector(self):
        decomp = BlockDecomposition(10, 3)
        owners = decomp.owners()
        assert owners.shape == (10,)
        assert owners[0] == 0
        assert owners[-1] == 2


class TestRebalance:
    @given(
        st.integers(1, 200),
        st.integers(1, 8),
        st.data(),
    )
    @settings(max_examples=60)
    def test_conservation_every_index_owned_once(
        self, n_items, n_ranks, data
    ):
        decomp = BlockDecomposition(n_items, n_ranks)
        exclude = data.draw(
            st.lists(
                st.integers(0, n_ranks - 1),
                max_size=n_ranks - 1,
                unique=True,
            )
        )
        new = decomp.rebalance(exclude=exclude)
        counts = new.counts()
        assert sum(counts) == n_items
        # Contiguous ascending blocks: concatenating slices in rank
        # order covers [0, n_items) exactly once.
        cursor = 0
        for rank in range(n_ranks):
            s = new.slice_for(rank)
            assert s.start == cursor
            cursor = s.stop
        assert cursor == n_items
        for index in range(n_items):
            owner = new.owner(index)
            s = new.slice_for(owner)
            assert s.start <= index < s.stop

    def test_excluded_ranks_own_nothing(self):
        decomp = BlockDecomposition(20, 4)
        new = decomp.rebalance(exclude=[1, 3])
        counts = new.counts()
        assert counts[1] == 0 and counts[3] == 0
        assert counts[0] == 10 and counts[2] == 10
        for index in range(20):
            assert new.owner(index) in (0, 2)

    def test_weight_proportional_split(self):
        decomp = BlockDecomposition(100, 4)
        new = decomp.rebalance(weights=[3.0, 1.0, 1.0, 0.0])
        assert new.counts() == [60, 20, 20, 0]

    def test_weights_with_exclusion(self):
        decomp = BlockDecomposition(30, 3)
        new = decomp.rebalance(weights=[2.0, 5.0, 1.0], exclude=[1])
        assert new.counts() == [20, 0, 10]

    def test_equal_weights_match_uniform(self):
        decomp = BlockDecomposition(23, 5)
        assert decomp.rebalance().counts() == decomp.counts()

    def test_invalid_inputs_rejected(self):
        decomp = BlockDecomposition(10, 2)
        with pytest.raises(ConfigurationError):
            decomp.rebalance(exclude=[5])
        with pytest.raises(ConfigurationError):
            decomp.rebalance(exclude=[0, 1])
        with pytest.raises(ConfigurationError):
            decomp.rebalance(weights=[1.0])
        with pytest.raises(ConfigurationError):
            decomp.rebalance(weights=[-1.0, 1.0])
        with pytest.raises(ConfigurationError):
            decomp.rebalance(weights=[np.nan, 1.0])
        with pytest.raises(ConfigurationError):
            decomp.rebalance(weights=[0.0, 1.0], exclude=[1])

    def test_boundaries_validation(self):
        with pytest.raises(ConfigurationError):
            BlockDecomposition(10, 2, boundaries=(0, 5))
        with pytest.raises(ConfigurationError):
            BlockDecomposition(10, 2, boundaries=(1, 5, 10))
        with pytest.raises(ConfigurationError):
            BlockDecomposition(10, 2, boundaries=(0, 7, 5))
        explicit = BlockDecomposition(10, 2, boundaries=(0, 7, 10))
        assert explicit.counts() == [7, 3]
