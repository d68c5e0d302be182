"""Screenplay dialogue analysis: parse scripts into per-character corpora,
embed dialogue into 32-dim Plutchik emotion vectors, and contrast how
character groups are written (rank tests, clustering, 2-D projection,
exclusive vocabulary)."""

import os

# One BLAS thread, set before any submodule imports numpy: the t-SNE map's
# bits depend on the thread count, so it is assigned, not a default. An idle
# second OpenBLAS thread also costs CPU in every process.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
