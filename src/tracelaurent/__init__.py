"""Laurent polynomials generated by traces of 2x2 matrix powers.

A generic 2x2 complex matrix M defines the pencil S(z) = M diag(z, 1/z) M*,
and tr(S(z)^n) is a Laurent polynomial of exponent range -n..n. This package
computes the family, reduces matrices to a three-parameter normal form,
evaluates the scaled Chebyshev closed form, localizes all roots on
unit-circle arcs, and exposes the circle restriction as cosine polynomials
together with the associated comb map.
"""

from .core import DomainError, LaurentPoly, as_matrix, laurent_close
from .chebyshev import cheb_eval, cheb_preimage, cheb_roots
from .normal_form import NormalForm, canonical_matrix, normal_form
from .family import (
    DegreeCapError,
    brute_force_coeffs,
    closed_form_coeffs,
    closed_form_eval,
    trace_power_coeffs,
)
from .roots import (
    RootReport,
    arc_membership,
    canonical_roots,
    matrix_roots,
)
from .trig import (
    IntervalSystem,
    TrigPoly,
    comb_height,
    comb_map,
    trig_coeffs,
    trig_roots,
    unit_level_roots,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeCapError",
    "DomainError",
    "IntervalSystem",
    "LaurentPoly",
    "NormalForm",
    "RootReport",
    "TrigPoly",
    "arc_membership",
    "as_matrix",
    "brute_force_coeffs",
    "canonical_matrix",
    "canonical_roots",
    "cheb_eval",
    "cheb_preimage",
    "cheb_roots",
    "closed_form_coeffs",
    "closed_form_eval",
    "comb_height",
    "comb_map",
    "laurent_close",
    "matrix_roots",
    "normal_form",
    "trace_power_coeffs",
    "trig_coeffs",
    "trig_roots",
    "unit_level_roots",
    "__version__",
]
