"""Computational optimal transport with brute-force verifiable contracts.

Subpackage map:

- ``measures``: discrete measures, grid densities, costs, couplings.
- ``exact``: assignment, Kantorovich LP, 1-D closed forms.
- ``gaussian``: Bures metric, Gaussian W2, Monge maps between Gaussians.
- ``entropic``: Sinkhorn on an absorbed kernel with a log-domain
  safeguard, Hilbert-metric diagnostics, Sinkhorn divergence.
- ``duality``: c-transforms, duality gaps, semi-dual energy.
- ``semidiscrete``: Monte Carlo semi-dual, SGD potentials, Lloyd quantization.
- ``w1``: Kantorovich-Rubinstein norm, flat norm, Beckmann graph problem.
- ``divergences``: phi-divergences and maximum mean discrepancy.
- ``dynamics``: particle gradient flows, 1-D entropy flows, flow matching,
  attention and mean-field network dynamics.
- ``cli``: the ``ot`` command line front end.
"""

import os as _os

# OT_THREADS caps internal parallelism.  BLAS thread pools read their env
# vars when numpy first loads, so this must run before any numpy import.
_threads = _os.environ.get("OT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .measures import (
    Coupling,
    CostSpec,
    DiscreteMeasure,
    GridDensity1D,
    align_supports,
    build_cost_matrix,
    cdf_and_quantile,
    glue,
    normalize,
    product_coupling,
    pushforward,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure",
    "GridDensity1D",
    "CostSpec",
    "Coupling",
    "build_cost_matrix",
    "normalize",
    "pushforward",
    "cdf_and_quantile",
    "product_coupling",
    "glue",
    "align_supports",
    "__version__",
]
