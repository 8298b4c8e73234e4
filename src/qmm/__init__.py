"""Computational toolkit for quartic Hermitian matrix models.

Exact and asymptotic enumeration of zero-diagonal symmetric integer
matrices, volumes of diagonal subpolytopes of symmetric stochastic
matrices, monic orthogonal-polynomial tables for the quartic weight,
determinant identities, saddle-point/oscillatory quadrature, and
partition-function evaluators, each cross-checked against independent
oracles.  Import each name from its module; the command line is `qmm.cli`.
"""

# a bare `import qmm` loads the library, so timing it times the library's import
from . import asymcount, counting, detkit, numkit, orthopoly, partition, polytope, quadrature
