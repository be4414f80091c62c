"""Core library: the paper's real-time auto-regression method.

Public surface:

* :class:`ARModel` — order-n linear AR model with streaming mini-batch
  gradient descent; :class:`Forecast` rolls it forward in time or space.
* :class:`MiniBatch` / :class:`MiniBatchTrainer` — the fill → update →
  reset training loop embedded in simulation iterations.
* :class:`IterParam` — (begin, end, step) temporal/spatial windows.
* :class:`DataCollector` / :class:`SeriesStore` — per-iteration sampling.
* :class:`CurveFitting` — the 'Curve_Fitting' analysis method.
* :class:`VariableTracker` + tracking helpers — extrema/inflection
  location and the delay-time gradient-break rule.
* :class:`ThresholdDetector` — break-point/ROI radius search.
* :class:`EarlyStopMonitor` — accuracy-triggered early termination.
* :class:`Region` — begin/end orchestration around the simulation loop.
* :mod:`repro.core.capi` — the paper's C-style ``td_*`` facade.
"""

from repro.core.ar_model import ARModel, Forecast, RunningStats
from repro.core.collector import DataCollector, SeriesStore
from repro.core.curve_fitting import Analysis, CurveFitting
from repro.core.early_stop import EarlyStopMonitor
from repro.core.events import (
    ACTION_CONTINUE,
    ACTION_TERMINATE,
    StatusBroadcast,
    StatusBroadcaster,
)
from repro.core.features import (
    BreakPointFeature,
    DelayTimeFeature,
    ExtractionSummary,
    ThresholdEvent,
)
from repro.core.minibatch import MiniBatch, MiniBatchTrainer
from repro.core.params import IterParam, as_iter_param
from repro.core.providers import (
    array_provider,
    attribute_provider,
    batch_sample,
    batched,
    checked,
    provider_key,
    scalar_provider,
)
from repro.core.region import Region
from repro.core.thresholds import RoiResult, ThresholdDetector, peak_profile
from repro.core.tracking import (
    TrackedPoint,
    VariableTracker,
    detect_gradient_break,
    find_extrema,
    find_inflections,
    gradients,
    smooth,
)

__all__ = [
    "ACTION_CONTINUE",
    "ACTION_TERMINATE",
    "ARModel",
    "Analysis",
    "BreakPointFeature",
    "CurveFitting",
    "DataCollector",
    "DelayTimeFeature",
    "EarlyStopMonitor",
    "ExtractionSummary",
    "Forecast",
    "IterParam",
    "MiniBatch",
    "MiniBatchTrainer",
    "Region",
    "RoiResult",
    "RunningStats",
    "SeriesStore",
    "StatusBroadcast",
    "StatusBroadcaster",
    "ThresholdDetector",
    "ThresholdEvent",
    "TrackedPoint",
    "VariableTracker",
    "array_provider",
    "as_iter_param",
    "attribute_provider",
    "batch_sample",
    "batched",
    "checked",
    "detect_gradient_break",
    "find_extrema",
    "find_inflections",
    "gradients",
    "peak_profile",
    "provider_key",
    "scalar_provider",
    "smooth",
]
