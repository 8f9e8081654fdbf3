"""Forum message analytics: interaction and word co-occurrence networks,
weekly structural/semantic features, and a lagged correlation / Granger /
regression battery against a weekly price series."""

__version__ = "0.1.0"
