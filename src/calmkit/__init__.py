"""Desk-scale model merging toolkit.

Builds multi-task classifiers from synthetic Gaussian tasks, merges them with
weight averaging, task arithmetic, ties-merging, or consensus-aware sequential
mask merging, and benchmarks the results reproducibly.
"""

__version__ = "0.1.0"
