"""Taxonomy-conditioned generative zero-shot learning sandbox."""

__version__ = "0.1.0"
