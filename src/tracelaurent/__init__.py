"""Laurent polynomials generated by traces of 2x2 matrix powers.

A generic 2x2 complex matrix M defines the pencil S(z) = M diag(z, 1/z) M*,
and tr(S(z)^n) is a Laurent polynomial of exponent range -n..n. This package
computes the family, reduces matrices to a three-parameter normal form,
evaluates the scaled Chebyshev closed form, localizes all roots on
unit-circle arcs, and exposes the circle restriction as cosine polynomials
together with the associated comb map.
"""

from . import chebyshev, core, family, roots, trig
from . import normal_form as _normal_form  # bound before `normal_form` names the function
from .core import *
from .chebyshev import *
from .normal_form import *
from .family import *
from .roots import *
from .trig import *

__version__ = "0.1.0"

__all__ = [
    *(name for module in (core, chebyshev, _normal_form, family, roots, trig) for name in module.__all__),
    "__version__",
]
