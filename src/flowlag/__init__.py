"""Velocity-deficit laboratory for flow-matching models.

Trains velocity fields with plain and magnitude-aware regression,
samples them with schedule-corrected ODE/SDE solvers, and measures the
kinetic-energy deficit and integration lag against exact Gaussian
oracles.

FLOWLAG_THREADS=N caps the numerical thread pools.  The pools read their
caps when numpy loads, so the cap is set here, before any flowlag module
imports numpy; it holds whenever flowlag is imported before numpy.
"""

import os

if os.environ.get("FLOWLAG_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FLOWLAG_THREADS"])

__version__ = "0.1.0"
