"""Tests for repro.core.minibatch."""

import numpy as np
import pytest

from repro.core.minibatch import MiniBatch, MiniBatchTrainer
from repro.errors import ConfigurationError


class _CountingModel:
    """Stub model recording the batches it is trained on."""

    def __init__(self):
        self.batches = []

    def partial_fit(self, x, y):
        self.batches.append((np.array(x), np.array(y)))
        return float(len(self.batches))


class TestMiniBatch:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniBatch(0, 3)

    def test_invalid_features_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniBatch(4, 0)

    def test_fills_at_capacity(self):
        batch = MiniBatch(3, 2)
        assert not batch.add([1, 2], 0.5)
        assert not batch.add([3, 4], 0.6)
        assert batch.add([5, 6], 0.7)
        assert batch.full
        assert len(batch) == 3

    def test_add_to_full_raises(self):
        batch = MiniBatch(1, 2)
        batch.add([1, 2], 0.5)
        with pytest.raises(ConfigurationError):
            batch.add([3, 4], 0.6)

    def test_wrong_feature_width_rejected(self):
        batch = MiniBatch(4, 3)
        with pytest.raises(ConfigurationError):
            batch.add([1, 2], 0.5)

    def test_reset_empties(self):
        batch = MiniBatch(2, 1)
        batch.add([1], 1)
        batch.add([2], 2)
        batch.reset()
        assert len(batch) == 0
        assert not batch.full

    def test_view_returns_buffered_samples(self):
        batch = MiniBatch(4, 2)
        batch.add([1, 2], 10)
        batch.add([3, 4], 20)
        x, y = batch.view()
        np.testing.assert_array_equal(x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(y, [10, 20])

    def test_view_is_read_only(self):
        batch = MiniBatch(4, 2)
        batch.add([1, 2], 10)
        x, _ = batch.view()
        with pytest.raises(ValueError):
            x[0, 0] = 99

    def test_add_block_accepts_what_fits(self):
        batch = MiniBatch(3, 2)
        taken = batch.add_block([[1, 2], [3, 4]], [10, 20])
        assert taken == 2
        assert len(batch) == 2
        # Only one slot left: the overflow stays with the caller.
        taken = batch.add_block([[5, 6], [7, 8]], [30, 40])
        assert taken == 1
        assert batch.full
        x, y = batch.view()
        np.testing.assert_array_equal(x, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(y, [10, 20, 30])

    def test_add_block_on_full_returns_zero(self):
        batch = MiniBatch(1, 2)
        batch.add([1, 2], 1)
        assert batch.add_block([[3, 4]], [2]) == 0

    def test_add_block_validates_shapes(self):
        batch = MiniBatch(4, 2)
        with pytest.raises(ConfigurationError):
            batch.add_block([[1, 2, 3]], [1])
        with pytest.raises(ConfigurationError):
            batch.add_block([[1, 2], [3, 4]], [1])


class TestMiniBatchTrainer:
    def test_updates_only_when_batch_fills(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(model, capacity=3, n_features=1)
        assert trainer.push([1], 1) is None
        assert trainer.push([2], 2) is None
        loss = trainer.push([3], 3)
        assert loss == 1.0
        assert trainer.updates == 1
        # Buffer was reset: next two pushes don't train.
        assert trainer.push([4], 4) is None
        assert trainer.push([5], 5) is None
        assert trainer.updates == 1

    def test_batch_contents_reach_model(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(model, capacity=2, n_features=2)
        trainer.push([1, 2], 10)
        trainer.push([3, 4], 20)
        x, y = model.batches[0]
        np.testing.assert_array_equal(x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(y, [10, 20])

    def test_finalize_drains_partial_batch(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(model, capacity=4, n_features=1)
        trainer.push([1], 1)
        trainer.push([2], 2)
        loss = trainer.finalize()
        assert loss == 1.0
        assert trainer.updates == 1
        assert model.batches[0][1].shape == (2,)

    def test_finalize_without_drain_discards(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(
            model, capacity=4, n_features=1, drain_partial=False
        )
        trainer.push([1], 1)
        assert trainer.finalize() is None
        assert trainer.updates == 0

    def test_finalize_on_empty_batch_is_noop(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(model, capacity=2, n_features=1)
        assert trainer.finalize() is None

    def test_loss_history_and_counters(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(model, capacity=1, n_features=1)
        for i in range(5):
            trainer.push([i], i)
        assert trainer.losses == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert trainer.last_loss == 5.0
        assert trainer.samples_seen == 5

    def test_push_block_trains_each_full_batch(self):
        model = _CountingModel()
        trainer = MiniBatchTrainer(model, capacity=2, n_features=1)
        losses = trainer.push_block(
            np.array([[1], [2], [3], [4]]), np.array([1, 2, 3, 4])
        )
        assert losses == [1.0, 2.0]
