"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["EffvecError", "ParseError", "CapExceededError", "ConvergenceError"]


class EffvecError(Exception):
    """Base class for package-specific failures."""


class ParseError(EffvecError, ValueError):
    """Malformed matrix or vector input; carries a human-readable location."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


class CapExceededError(EffvecError):
    """Work refused because it would exceed a fixed bound: cycle enumeration
    beyond the configured cap, roots of oversized radicands, or a convexity
    question that the witness draws and the shared edges leave open."""


class ConvergenceError(EffvecError):
    """Power iteration failed to reach the requested tolerance."""

    def __init__(self, iterations: int, last_delta: float):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"no convergence after {iterations} iterations (last relative change {last_delta:.3e})"
        )
