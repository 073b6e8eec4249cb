"""Two-parameter (p,q) Kantorovich-type positive linear operators.

Library layout:

    pq_calculus   (p,q)-integers, product powers, and the unit-interval
                  integral: truncated series and closed monomial form
    functions     named test functions with structure metadata
    operators     basis weights, node maps and operator evaluation
    moments       closed-form moments vs direct summation, residually;
                  one routine takes the direct sums of `verify_moments`
                  and `bound_reports`
    bounds        moduli of both orders by one routine; rate-bound reports
    convergence   sequence specs, their hypothesis check, and `sweep_rows`,
                  the one sweep: sup errors of any handles per n
    cli           reproducible command-line frontend (see `pqkanto -h`)
"""

__version__ = "0.2.0"

from .bounds import BoundReport, bound_reports
from .convergence import SequenceSpec, default_spec, hypothesis_check, sweep_rows
from .errors import ConvergenceError, DomainError, RegimeError, SizeCapError
from .functions import FunctionHandle, PiecewiseLinear, builtin, polynomial_handle
from .manifest import RunManifest
from .moments import MomentReport, peetre_bound_args, verify_moments
from .operators import (
    OperatorParams,
    apply_extended,
    apply_operator,
    basis_weights,
    node_hull_max,
)
from .pq_calculus import PQPair, pq_integer, pq_integral_monomial, pq_power

__all__ = [
    "__version__",
    "BoundReport", "bound_reports",
    "SequenceSpec", "default_spec", "hypothesis_check", "sweep_rows",
    "ConvergenceError", "DomainError", "RegimeError", "SizeCapError",
    "FunctionHandle", "PiecewiseLinear", "builtin", "polynomial_handle",
    "RunManifest",
    "MomentReport", "peetre_bound_args", "verify_moments",
    "OperatorParams", "apply_extended", "apply_operator", "basis_weights",
    "node_hull_max",
    "PQPair", "pq_integer", "pq_integral_monomial", "pq_power",
]
