"""Bi-temporal semantic change detection on a minimal float64 autodiff core."""

__version__ = "0.1.0"
