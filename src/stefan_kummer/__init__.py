"""Similarity solutions of one-phase melting problems whose latent heat
grows as a power of position, under convective, temperature, or flux
boundary conditions, together with an independent finite-difference
oracle for cross-validation.

The package exports every name in each library module's ``__all__``, plus
``__version__``: each public name is listed once, by the module that owns it."""

from . import equivalence, kummer, limits, oracle, stefan
from .equivalence import *
from .kummer import *
from .limits import *
from .oracle import *
from .stefan import *

__version__ = "0.1.0"

__all__ = [*equivalence.__all__, *kummer.__all__, *limits.__all__, *oracle.__all__,
           *stefan.__all__, "__version__"]
