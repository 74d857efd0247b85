"""Helpers shared by the workload modules."""

from __future__ import annotations


class CheckError(Exception):
    """An output differs from its reference by more than its tolerance."""


def within(err: float, tol: float, what: str) -> float:
    """Return err, or raise CheckError if it is above tol (or NaN)."""
    if not err <= tol:
        raise CheckError(f"{what}: error {err:.3g} exceeds {tol:.3g}")
    return err
