"""Exception and warning types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


class PoleError(ValueError):
    """Evaluation requested at a pole of a special function."""


class ConvergenceError(RuntimeError):
    """A series or iteration hit its term cap before reaching tolerance."""


class TailBoundError(RuntimeError):
    """A truncated improper integral cannot certify the requested accuracy."""


class DifferentiationNoiseWarning(UserWarning):
    """Nothing in the library raises this warning; the name stays importable
    for callers that filter it."""
