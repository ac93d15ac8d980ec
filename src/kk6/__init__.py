"""kk6: symbolic + numeric verification engine for six-dimensional
Kaluza-Klein metric families.

The package builds the metric ansatz families (scalar-mode, photon, Proca,
half-spin, gravity-coupled), derives their connection and curvature
symbolically, and mechanically re-checks the field equations, closed-form
geodesics and interference predictions attached to them, cross-checking
every symbolic result against an independent finite-difference oracle.
"""
from .expr import (
    add, conj, coords, diff, exp, mul, num, power, simplify, sqrt, subs,
    sym, to_text,
)
from .parse import ParseError, parse_expression
from .symbols import DEFAULT_TABLE, Symbol
from .zeros import ZeroResult, evaluate, is_zero

__version__ = "0.1.0"

from .tensor import Metric6  # noqa: E402
from .curvature import christoffel, einstein, ricci, ricci_scalar  # noqa: E402
from .ansatz import (  # noqa: E402
    AnsatzError, coupled_metric, dirac_components, dirac_metric,
    gravity_metric, photon_metric, proca_metric, scalar_metric,
)
from .dynamics import (  # noqa: E402
    DynamicsError, closed_form_exprs, closed_form_state, integrate,
    interval_along, two_path_fringes,
)
from .report import ClaimReport, Report, to_json  # noqa: E402
from .verify import claim_ids, must_pass_ids, run_claim, run_suite  # noqa: E402
