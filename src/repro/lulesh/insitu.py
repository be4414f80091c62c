"""In-situ break-point analysis with early termination for LULESH.

Extends the generic :class:`~repro.core.curve_fitting.CurveFitting`
with the material-deformation stop rule of Section IV: once the model
has converged, the analysis extrapolates the break-point radius for its
threshold; when the simulated wavefront has *passed* that radius the
feature is confirmed and the simulation can terminate.  If confirmation
never happens inside the collection window (low thresholds, whose break
point lies beyond the data), the analysis stops at the window end — the
paper's "40% of total iterations" rows in Table IV.
"""

from __future__ import annotations

from typing import Optional

from repro.core.curve_fitting import CurveFitting
from repro.core.events import ACTION_TERMINATE, StatusBroadcast
from repro.core.features import BreakPointFeature
from repro.errors import ConfigurationError


class BreakPointAnalysis(CurveFitting):
    """Curve fitting + threshold break-point tracking + early stop.

    Parameters (beyond :class:`CurveFitting`)
    ----------
    max_location:
        Domain edge in radial elements (the paper's size).
    check_every:
        Confirmation cadence, in collected samples.
    """

    def __init__(
        self,
        provider,
        spatial,
        temporal,
        *,
        threshold: float,
        reference_value: Optional[float] = None,
        max_location: int,
        check_every: int = 8,
        **kwargs,
    ) -> None:
        if check_every <= 0:
            raise ConfigurationError(
                f"check_every must be positive, got {check_every}"
            )
        super().__init__(
            provider,
            spatial,
            temporal,
            threshold=threshold,
            reference_value=reference_value or 1.0,
            **kwargs,
        )
        self.max_location = max_location
        self.check_every = check_every
        self._reference_dynamic = reference_value is None
        self.break_point_feature: Optional[BreakPointFeature] = None
        self._confirmed = False

    def on_iteration(self, domain, iteration):
        before = self.collector.rows_ingested
        event = super().on_iteration(domain, iteration)
        # Track the blast reference velocity as the run's peak so far
        # when the caller did not pin one; the simulation step published
        # this step's peak on the domain.
        if self._reference_dynamic:
            self.reference_value = max(self.reference_value, domain.peak_speed)
        n = self.collector.rows_ingested
        # Confirmation is due only on iterations that actually collected
        # a sample — the stale count would otherwise retrigger the
        # (fit + extrapolate) pass every iteration after the window.
        due = n > before and n % self.check_every == 0
        if (
            not self._confirmed
            and due
            and self.monitor.converged
            and self.model.is_trained
        ):
            if self._confirm(domain, iteration):
                event = StatusBroadcast(
                    iteration=iteration,
                    predicted_value=float(self.break_point_feature.radius),
                    wavefront_rank=self.wavefront_rank(
                        domain.wavefront_location()
                    ),
                    action=ACTION_TERMINATE if self.terminate_when_trained else 0,
                )
        if self._finalized and self.terminate_when_trained:
            # Window exhausted: stop regardless of confirmation (the
            # paper's low-threshold rows stop at the window end).
            self.wants_stop = True
        return event

    def _confirm(self, domain, iteration: int) -> bool:
        """Check whether the wavefront has passed the predicted radius.

        Two conditions gate confirmation: the shock must already have
        swept the entire collection window (otherwise the window's peak
        profile — the extrapolation base — is still growing), and the
        wavefront must have reached the predicted break radius so the
        prediction is validated by real motion there.
        """
        wavefront = domain.wavefront_location()
        # The peak profile at a location is final only once the shock
        # has passed it; require the whole collection window swept
        # (plus one element of margin) before trusting extrapolation.
        if wavefront < self.collector.spatial.end + 1:
            return False
        radius = self.break_point(self.threshold, self.max_location)
        if wavefront >= radius:
            self.break_point_feature = BreakPointFeature(
                radius=radius,
                threshold=self.threshold,
                detected_at_iteration=iteration,
            )
            self._confirmed = True
            if self.terminate_when_trained:
                self.wants_stop = True
            return True
        return False

    def final_feature(self) -> BreakPointFeature:
        """The extracted break point (computed at window end if never
        confirmed mid-run)."""
        if self.break_point_feature is not None:
            return self.break_point_feature
        radius = self.break_point(self.threshold, self.max_location)
        return BreakPointFeature(
            radius=radius,
            threshold=self.threshold,
            detected_at_iteration=(
                int(self.collector.store.iterations[-1])
                if len(self.collector.store)
                else None
            ),
        )
