"""Overhead and acceleration arithmetic for the performance tables.

Small, well-named helpers so the experiment drivers and the paper
tables share one definition:

* overhead % = (instrumented - original) / original * 100  (Tables III, VII)
* acceleration % = (original - early_stop) / original * 100  (Table VII)
* share % = part / whole * 100  (Table IV's "% of total execution time")
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def overhead_percent(original: float, instrumented: float) -> float:
    """Relative overhead of the instrumented run, in percent."""
    if original <= 0:
        raise ConfigurationError(
            f"original time must be positive, got {original}"
        )
    return 100.0 * (instrumented - original) / original


def acceleration_percent(original: float, early_stopped: float) -> float:
    """Saved fraction of the original run time, in percent."""
    if original <= 0:
        raise ConfigurationError(
            f"original time must be positive, got {original}"
        )
    return 100.0 * (original - early_stopped) / original


def share_percent(part: float, whole: float) -> float:
    """``part`` as a percentage of ``whole``."""
    if whole <= 0:
        raise ConfigurationError(f"whole must be positive, got {whole}")
    return 100.0 * part / whole
