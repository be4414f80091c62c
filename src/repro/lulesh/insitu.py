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

    def cohort_key(self) -> Optional[tuple]:
        """:meth:`CurveFitting.cohort_key` plus the confirmation cadence
        and whether the reference velocity is dynamic (then its value
        too: twins move it together from one value)."""
        key = super().cohort_key()
        if key is None:
            return None
        dynamic = self._reference_dynamic
        return key + (
            self.check_every,
            dynamic,
            self.reference_value if dynamic else None,
        )

    def step_cohort(self, members, domain, iteration, own=None):
        """:meth:`CurveFitting.step_cohort` plus the break-point stop rule.

        Shared: the reference-velocity update and the "confirmation
        due" test.  A member is visited to run a due confirmation and,
        at the window end, to stop.
        """
        rows = self.collector.rows_ingested
        finalized = self._finalized
        visited = super().step_cohort(members, domain, iteration, own)
        # Track the blast reference velocity as the run's peak so far
        # when the caller did not pin one; the simulation step published
        # this step's peak on the domain.
        if self._reference_dynamic:
            reference = max(self.reference_value, domain.peak_speed)
            if reference != self.reference_value:
                self._share(members, "reference_value", reference)
        n = self.collector.rows_ingested
        # Confirmation is due only on iterations that actually collected
        # a sample — the stale count would otherwise retrigger the
        # (fit + extrapolate) pass every iteration after the window.
        if (
            n > rows
            and n % self.check_every == 0
            and self.monitor.converged
            and self.model.is_trained
        ):
            pending = [j for j, m in enumerate(members) if not m._confirmed]
            wavefront = domain.wavefront_location() if pending else 0
            # The peak profile at a location is final only once the
            # shock has passed it; require the whole collection window
            # swept (plus one element of margin) before trusting
            # extrapolation.
            if wavefront >= self.collector.spatial.end + 1:
                confirmed = {}
                for j in pending:
                    event = self._visit(
                        own, j, members[j]._confirm, wavefront, iteration
                    )
                    if event is not None:
                        confirmed[j] = event
                if confirmed:
                    # A confirmation's broadcast replaces the member's
                    # crossing broadcast of this iteration.
                    visited = sorted({**dict(visited), **confirmed}.items())
        if self._finalized and not finalized:
            # Window exhausted: stop regardless of confirmation (the
            # paper's low-threshold rows stop at the window end).
            for member in members:
                if member.terminate_when_trained:
                    member.wants_stop = True
        return visited

    def _confirm(
        self, wavefront: int, iteration: int
    ) -> Optional[StatusBroadcast]:
        """Confirm the break point once the wavefront has passed it.

        The wavefront has already swept the whole collection window
        (:meth:`step_cohort` checks that); confirmation also needs it
        at the predicted break radius, so the prediction is validated by
        real motion there.  Returns the confirmation broadcast, or None.
        """
        radius = self.break_point(self.threshold, self.max_location)
        if wavefront < radius:
            return None
        self.break_point_feature = BreakPointFeature(
            radius=radius,
            threshold=self.threshold,
            detected_at_iteration=iteration,
        )
        self._confirmed = True
        if self.terminate_when_trained:
            self.wants_stop = True
        return StatusBroadcast(
            iteration=iteration,
            predicted_value=float(radius),
            wavefront_rank=self.wavefront_rank(wavefront),
            action=ACTION_TERMINATE if self.terminate_when_trained else 0,
        )

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
