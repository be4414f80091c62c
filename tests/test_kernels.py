"""Tests for the data plane's hot loops (:mod:`repro.core.kernels`).

Each NumPy kernel is checked against a straight-line reference
implementation (the golden driver suite already pins the end-to-end
numerics; these pin the kernels in isolation), and
:func:`~repro.core.kernels.resolve_kernels`, which names the
implementation in a benchmark's environment record, accepts only
``"auto"`` and ``"numpy"``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.ar_model import ARModel, RunningStats
from repro.errors import ConfigurationError, ReproError

PARITY_TOL = 1e-12


class TestResolveKernels:
    def test_auto_falls_back_without_numba(self):
        assert kernels.resolve_kernels("auto") == "numpy"
        assert kernels.resolve_kernels("numpy") == "numpy"

    def test_explicit_numba_without_toolchain_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            kernels.resolve_kernels("numba")
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            kernels.resolve_kernels("jit")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            kernels.resolve_kernels("fortran")

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            kernels.resolve_kernels("fortran")
        with pytest.raises(ReproError):
            kernels.resolve_kernels("numba")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _legacy_update(model, x, y, w, b, x_stats, y_stats, hits):
    """Straight-line reference for one ``ARModel.partial_fit``.

    Stats fold, standardise, then clipped GD epochs with the
    stationarity projection after each step, every term recomputed in
    place.  ``hits`` collects the branches taken.  Returns ``(pre_mse,
    w, b)``; the stats aggregates are updated in place.
    """
    x_stats.update(x)
    y_stats.update(y.reshape(-1, 1))
    xs = (x - x_stats.mean) / x_stats.std
    ys = (y - y_stats.mean[0]) / y_stats.std[0]
    k = xs.shape[0]
    bound = model.max_coefficient_sum
    prior = model._prior
    w = w.copy()
    pre_mse = float(np.mean((xs @ w + b - ys) ** 2))
    for _ in range(model.epochs_per_batch):
        residual = xs @ w + b - ys
        grad_w = 2.0 * (xs.T @ residual) / k + 2.0 * model.l2 * (w - prior)
        grad_b = 2.0 * float(np.mean(residual))
        norm = float(np.sqrt(np.dot(grad_w, grad_w) + grad_b * grad_b))
        if norm > model.clip:
            hits.add("clip")
            grad_w = grad_w * (model.clip / norm)
            grad_b = grad_b * (model.clip / norm)
        w = w - model.learning_rate * grad_w
        b -= model.learning_rate * grad_b
        if bound is None:
            continue
        scale = float(y_stats.std[0]) / x_stats.std
        total = float(np.sum(w * scale))
        if total > bound:
            prior_total = float(np.sum(prior * scale))
            deviation = total - prior_total
            if deviation <= 0 or prior_total >= bound:
                hits.add("scale_down")
                w *= bound / total
            else:
                hits.add("shrink")
                w = prior + (bound - prior_total) / deviation * (w - prior)
    return pre_mse, w, b


def _chan_update_reference(mean, m2, count, rows):
    """``kernels.chan_update`` as it was written before its rewrite."""
    k = rows.shape[0]
    if k == 0:
        return mean, m2, count
    block_mean = rows.mean(axis=0)
    centered = rows - block_mean
    block_m2 = np.einsum("ij,ij->j", centered, centered)
    delta = block_mean - mean
    total = count + k
    mean = mean + delta * (k / total)
    m2 = m2 + block_m2 + delta * delta * (count * k / total)
    return mean, m2, total


def _std_reference(mean, m2, count):
    """``kernels.std`` as it was written before its rewrite."""
    if count < 2:
        return np.ones(mean.shape[0], dtype=np.float64)
    std = np.sqrt(m2 / (count - 1))
    floor = 1e-3 * np.abs(mean) + 1e-12
    std = np.maximum(std, floor)
    return np.where(std > 1e-12, std, 1.0)


def _check_update_against_legacy(
    order, k, l2, clip, bound, epochs, batches, constant, seed
):
    """Run ``batches`` updates through ``partial_fit`` and ``_legacy_update``.

    Asserts every output equal by ``tobytes()`` and returns the
    branches the reference took.  ``constant`` pins the last feature
    column to a value whose running mean is exact, so it standardises
    to exact zeros and its gradient entry is a signed zero.
    """
    rng = np.random.default_rng(seed)
    model = ARModel(
        order,
        seed=seed,
        learning_rate=0.1,
        epochs_per_batch=epochs,
        l2=l2,
        clip=clip,
        max_coefficient_sum=bound,
    )
    x_stats, y_stats = RunningStats(order), RunningStats(1)
    w, b = model._w.copy(), model._b
    coef = rng.standard_normal(order) * 1.5
    hits = set()
    for _ in range(batches):
        x = rng.standard_normal((k, order)) * 2.0 + 0.3
        if constant is not None:
            x[:, -1] = constant
        y = x @ coef + 0.1 * rng.standard_normal(k) + 0.1
        ref_pre_mse, w, b = _legacy_update(
            model, x, y, w, b, x_stats, y_stats, hits
        )
        pre_mse = model.partial_fit(x, y)
        assert np.float64(pre_mse).tobytes() == np.float64(ref_pre_mse).tobytes()
        assert model._w.tobytes() == w.tobytes()
        assert np.float64(model._b).tobytes() == np.float64(b).tobytes()
        for ours, ref in ((model.x_stats, x_stats), (model.y_stats, y_stats)):
            assert ours.count == ref.count
            assert ours._mean.tobytes() == ref._mean.tobytes()
            assert ours._m2.tobytes() == ref._m2.tobytes()
    return hits


#: Draws of ``test_ar_batch_update_matches_legacy_over_draws`` pinned
#: with the exact branches each takes: clip hit and miss, both
#: projections, projection off (the last shrink draw without its
#: bound) and one-row batches.
PINNED_DRAWS = [
    pytest.param(
        (5, 15, 0.01, 0.05, None, 16, 1, 0.0, 32652), {"clip"}, id="clip"
    ),
    pytest.param(
        (4, 9, 0.0, 0.05, 0.5, 20, 1, 0.0, 26418),
        {"clip", "scale_down"},
        id="clip-scale_down-zero_column",
    ),
    pytest.param(
        (3, 9, 0.5, 10.0, 2.0, 2, 3, 0.0, 35469), {"scale_down"}, id="scale_down"
    ),
    pytest.param(
        (5, 57, 0.0, 0.05, 2.0, 8, 1, -3.0, 13617),
        {"clip", "shrink"},
        id="clip-shrink-constant_column",
    ),
    pytest.param(
        (3, 59, 0.01, 10.0, 0.5, 16, 3, 2.0, 15368), {"shrink"}, id="shrink"
    ),
    pytest.param(
        (3, 59, 0.01, 10.0, None, 16, 3, 2.0, 15368), set(), id="no_projection"
    ),
    pytest.param((1, 1, 0.0, 1.0, 1.05, 1, 1, None, 0), set(), id="one_row"),
]


class TestNumpyKernels:
    def test_gather_matches_fancy_index(self, rng):
        values = rng.standard_normal(32)
        locations = np.array([5, 0, 31, 7], dtype=np.int64)
        np.testing.assert_array_equal(
            kernels.gather(values, locations), values[locations]
        )

    def test_temporal_features_matches_reference(self, rng):
        matrix = rng.standard_normal((10, 4))
        anchor, order = 6, 3
        expected = matrix[anchor - order + 1: anchor + 1][::-1].T
        np.testing.assert_array_equal(
            kernels.temporal_features(matrix, anchor, order), expected
        )

    def test_chan_update_matches_welford(self, rng):
        rows = rng.standard_normal((64, 5)) * 3.0 + 1.5
        mean = np.zeros(5)
        m2 = np.zeros(5)
        mean, m2, count = kernels.chan_update(mean, m2, 0, rows[:40])
        mean, m2, count = kernels.chan_update(mean, m2, count, rows[40:])
        # per-row Welford reference
        ref_mean = np.zeros(5)
        ref_m2 = np.zeros(5)
        for i, row in enumerate(rows, start=1):
            delta = row - ref_mean
            ref_mean += delta / i
            ref_m2 += delta * (row - ref_mean)
        assert count == 64
        np.testing.assert_allclose(mean, ref_mean, atol=PARITY_TOL)
        np.testing.assert_allclose(m2, ref_m2, atol=1e-10)

    def test_chan_update_empty_block_is_identity(self):
        mean = np.ones(3)
        m2 = np.full(3, 2.0)
        out_mean, out_m2, count = kernels.chan_update(
            mean, m2, 7, np.empty((0, 3))
        )
        assert count == 7
        np.testing.assert_array_equal(out_mean, mean)
        np.testing.assert_array_equal(out_m2, m2)

    def test_running_stats_dispatches_to_kernel(self, rng):
        rows = rng.standard_normal((16, 3))
        stats = RunningStats(3)
        stats.update(rows)
        mean, m2, count = kernels.chan_update(
            np.zeros(3), np.zeros(3), 0, rows
        )
        assert stats.count == count
        np.testing.assert_array_equal(stats.mean, mean)

    @pytest.mark.parametrize(
        "kwargs, coef, batches, hit, missed",
        [
            pytest.param(
                {"clip": 0.05}, (0.2, 0.5, -0.4), 1, {"clip"}, set(),
                id="clip",
            ),
            pytest.param(
                {}, (3.0, 0.0, 0.0), 1, {"scale_down"}, {"shrink"},
                id="scale_down",
            ),
            pytest.param(
                {}, (0.8, 0.6, 0.0), 1, {"shrink"}, {"scale_down"},
                id="shrink",
            ),
            pytest.param(
                {"max_coefficient_sum": None}, (3.0, 0.0, 0.0), 1, set(),
                {"scale_down", "shrink"}, id="no_projection",
            ),
            pytest.param(
                {"l2": 0.5}, (0.5, 0.3, 0.1), 1, set(), set(), id="l2"
            ),
            pytest.param(
                {"l2": 0.01}, (0.8, 0.6, 0.0), 4, {"shrink"}, set(),
                id="batches",
            ),
        ],
    )
    def test_ar_batch_update_bit_identical_to_reference(
        self, rng, kwargs, coef, batches, hit, missed
    ):
        """The fused update equals the straight-line reference bit for bit,
        on every branch it rearranges (clip, both projections, none)."""
        order, k = 3, 64
        model = ARModel(
            order, seed=9, learning_rate=0.1, epochs_per_batch=8, **kwargs
        )
        x_stats = RunningStats(order)
        y_stats = RunningStats(1)
        w, b = model._w.copy(), model._b
        hits = set()
        for _ in range(batches):
            x = rng.standard_normal((k, order)) * 2.0 + 0.3
            y = x @ np.asarray(coef) + 0.1 * rng.standard_normal(k) + 0.1
            ref_pre_mse, w, b = _legacy_update(
                model, x, y, w, b, x_stats, y_stats, hits
            )
            pre_mse = model.partial_fit(x, y)
            assert pre_mse == ref_pre_mse
            assert model._w.tobytes() == w.tobytes()
            assert model._b == b
            for ours, ref in ((model.x_stats, x_stats), (model.y_stats, y_stats)):
                assert ours.count == ref.count
                assert ours._mean.tobytes() == ref._mean.tobytes()
                assert ours._m2.tobytes() == ref._m2.tobytes()
        assert hit <= hits and not missed & hits, hits
        if kwargs.get("max_coefficient_sum", 0.0) is None:
            # The bound would have held the fit: it is really off.
            assert model.coefficients.sum() > 1.05

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(
        order=st.integers(1, 5),
        k=st.integers(1, 70),
        l2=st.sampled_from([0.0, 0.01, 0.5]),
        clip=st.sampled_from([0.05, 1.0, 10.0]),
        bound=st.sampled_from([None, 0.5, 1.05, 2.0]),
        epochs=st.integers(1, 20),
        batches=st.integers(1, 3),
        constant=st.sampled_from([None, 0.0, 2.0, -3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_ar_batch_update_matches_legacy_over_draws(
        self, order, k, l2, clip, bound, epochs, batches, constant, seed
    ):
        """Bit identity with the straight-line reference over the whole
        space of orders, odd and even batch sizes, ridge on and off,
        clip hit and miss, both projections, projection off and signed
        zero gradients from a constant feature column."""
        _check_update_against_legacy(
            order, k, l2, clip, bound, epochs, batches, constant, seed
        )

    @pytest.mark.parametrize("draw, branches", PINNED_DRAWS)
    def test_pinned_draws_take_their_branches(self, draw, branches):
        assert _check_update_against_legacy(*draw) == branches

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        width=st.integers(1, 5),
        k=st.integers(0, 70),
        count=st.sampled_from([0, 1, 2, 7, 64]),
        degenerate=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_chan_update_and_std_match_reference_bitwise(
        self, width, k, count, degenerate, seed
    ):
        """``ar_batch_update`` folds stats through these two, so the
        legacy comparison cannot see a change in them: pin them against
        copies of their bodies.  ``degenerate`` adds a constant column
        and a zero mean and M2, where the std floor and its 1.0
        fallback apply."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((k, width)) * 3.0 + 1.5
        mean = rng.standard_normal(width) if count else np.zeros(width)
        m2 = np.abs(rng.standard_normal(width)) * count
        if degenerate:
            rows[:, 0] = 2.0
            mean[-1] = m2[-1] = 0.0
        ours = kernels.chan_update(mean, m2, count, rows)
        ref = _chan_update_reference(mean, m2, count, rows)
        assert ours[2] == ref[2]
        assert ours[0].tobytes() == ref[0].tobytes()
        assert ours[1].tobytes() == ref[1].tobytes()
        for stats in (ours, (mean, m2, count)):
            assert (
                kernels.std(*stats).tobytes() == _std_reference(*stats).tobytes()
            )

    def test_normal_solve_matches_reference(self, rng):
        order, k = 3, 50
        xs = rng.standard_normal((k, order))
        ys = rng.standard_normal(k)
        prior = np.zeros(order)
        prior[0] = 1.0
        l2 = 0.1
        coef = kernels.normal_solve(xs, ys, prior, l2)
        design = np.hstack([np.ones((k, 1)), xs])
        gram = design.T @ design + l2 * np.diag([0.0] + [1.0] * order)
        rhs = design.T @ ys + l2 * np.concatenate([[0.0], prior])
        expected, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        np.testing.assert_allclose(coef, expected, atol=PARITY_TOL)
