"""Surrogate-assisted structural reliability analysis.

Estimate small failure probabilities P[g(X) <= 0] with sampling methods
(crude Monte Carlo, importance sampling), gradient methods (mean-value
index, design-point search), and surrogate methods (quadratic response
surfaces, polynomial chaos expansions, adaptively enriched Gaussian-process
models, and surrogate-shaped importance sampling with an exact correction
factor).
"""

from .errors import *
from .estimators import *
from .kriging import *
from .limitstate import *
from .mcmc import *
from .metais import *
from .pce import *
from .probmodel import *
from .response_surface import *

__version__ = "0.1.0"
