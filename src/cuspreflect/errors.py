"""Exception types shared across the package."""

from __future__ import annotations


class WindowError(ValueError):
    """A parameter lies outside the admissible window (n, s, p or q)."""


class ChartDomainError(ValueError):
    """A point was handed to a chart that is not defined there.

    Carries the region label the point actually classifies to, so callers
    can report what the offending input was.
    """

    def __init__(self, message: str, label=None):
        super().__init__(message)
        self.label = label


class InterfaceError(ValueError):
    """A differential was requested too close to a piece interface."""


class EmptyRegionError(ValueError):
    """A sampler was asked for points in an empty region/shell intersection."""
