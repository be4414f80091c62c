"""Overhead arithmetic for the performance tables."""

from repro.instrument.overhead import (
    acceleration_percent,
    overhead_percent,
    share_percent,
)

__all__ = [
    "acceleration_percent",
    "overhead_percent",
    "share_percent",
]
