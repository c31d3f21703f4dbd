"""Exact rewriting for cubic-graded deformed plane algebras.

Scalars are rational functions of q over the field extended by a
primitive cube root of unity j.  Algebras are finite presentations with
oriented rewrite rules; reduction to normal form decides equality, and
the preset catalog carries every shipped presentation.
"""

from .scalars import (CycloRational, PoleError, QJ, QJPoly, J, J2, ONE, Q,
                      ZERO, jpow, qpow, rational, scalar_str, specialize_q)
from .freealg import GeneratorInfo, NCPolynomial, apply_hom, fa_str, word_grade
from .rewrite import (BudgetExceeded, LocalizeError, Presentation, RewriteRule,
                      TermOrder, localize)
from .presets import PRESETS, BuildError, build, verify_contraction
from .calculus import (DifferentialOperator, PartialOperator, cartan_forms,
                       cartan_verify, replay, verify_df_decomposition)
from .supergroup import (SuperMatrix, coact_dual, coact_plane, sdet,
                         t_inverse, verify_comodule)

__version__ = "0.1.0"
