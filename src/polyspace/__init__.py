"""Weighted polyanalytic Bergman, Dirichlet and Besov spaces on the unit disk
and the upper half-plane: exact Wirtinger calculus on polyanalytic
polynomials, polar quadrature, weighted (semi)norms, and the dilatation /
polynomial-density experiments.

The package exports each module's ``__all__``; the rest of a module's
names, such as :func:`quadrature.blocked_sum`, import from the module."""

from .domain import *
from .polyfun import *
from .weights import *
from .quadrature import *
from .norms import *
from .experiments import *

__version__ = "0.1.0"
