"""
Numerical verification of sharp Gaussian functional inequalities.

The package evaluates both sides of regularised hypercontractivity,
logarithmic Sobolev, Talagrand, Poincare, Beckner, Brascamp-Lieb and
Hamilton-Jacobi inequalities on structured inputs (semi-log-convex /
-concave densities, Fokker-Planck flow classes), reports the deficit with
explicit sharp constants, and reproduces the counterexamples that delimit
the hypotheses.
"""

from .numerics import (Grid1D, GridField, QuadratureRule, default_grid,
                       gauss_hermite_rule, ParameterError, EvaluationError,
                       PositivityError, TruncationError)
from .families import (LogQuad, field_from_family, gaussian_field,
                       symmetric_mixture)
from .semigroups import (ExponentTriple, InadmissibleExponentError,
                         IntegrabilityError, beta_s)
from .flows import (T_STAR, certify_matrix, curvature, fp_evolve,
                    fp_measure, preservation_trace, semi_log_concave,
                    semi_log_convex)
from .functionals import (EntFisher, entropy_fisher, q_functional,
                          sharp_constant)
from .reports import DeficitReport, HypothesisCheck
from .transport import (PotentialSpec, brenier_1d, caffarelli_check,
                        general_lsi_deficit, talagrand_deficit, w2)
from .inequalities import (beckner_check, brascamp_lieb_check,
                           counterexample_mixture,
                           counterexample_superharmonic, els_eigen_check,
                           hc_check, lsi_check, make_fp_input,
                           make_logconcave_input, make_talagrand_input,
                           matrix_check, poincare_check,
                           sample_reverse_triple)
from .hamilton_jacobi import (HJField, beta_of_a, dual_talagrand_check,
                              hj_hc_check, hopf_lax, quadratic_datum)
from .cli import ReportBundle, RunConfig, flow_trace, run

__version__ = "0.1.0"
