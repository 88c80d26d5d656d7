"""teleres: decide whether a d x d bipartite mixed state is a useful
quantum-teleportation resource.

Criteria implemented: singlet-fraction bounds (exact two-qubit fully
entangled fraction, maximally-entangled-basis overlap, two-qubit filtered
LOCC value via the partial transpose or its structural physical
approximation, the SPA, which is defined at every d), the maximum-
eigenvalue test and two-sided Dembo eigenvalue bounds, plus an
independent brute-force audit harness and a CLI.
"""

from .linalg import *
from .states import *
from .criteria import *
from .oracle import *

__version__ = "0.1.0"
