"""Weakly supervised land-cover benchmarking toolkit.

Pixel-wise baselines, label-noise tooling and evaluation metrics for the
setting where fine-resolution imagery is paired with coarse, partly wrong
land-cover labels.
"""

__version__ = "0.1.0"
