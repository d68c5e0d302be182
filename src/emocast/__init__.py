"""Screenplay dialogue analysis: parse scripts into per-character corpora,
embed dialogue into 32-dim Plutchik emotion vectors, and contrast how
character groups are written (rank tests, clustering, 2-D projection,
exclusive vocabulary)."""

__version__ = "0.1.0"
