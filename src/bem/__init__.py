"""Bayesian refinement of paired KG/BG embedding tables."""

__version__ = "0.3.3"
