"""Best-conditioned square row blocks of orthonormal frames.

Every n-by-k matrix with orthonormal columns contains a k-by-k block of
rows whose smallest singular value is bounded away from zero; the
conjectured uniform floor is 1/sqrt(n), attained at n = 4, k = 2 with
value 1/2.  This package selects the best block exhaustively, searches
for worst-case frames by multistart descent, and proves each step of the
4-by-2 sharpness argument in exact arithmetic.

Each public name is declared once, in its module's ``__all__``; the
package republishes the union of those lists.
"""

from . import certify, cli, csdecomp, exceptions, pluecker, serialize, stiefel, worstcase
from .certify import *
from .cli import *
from .csdecomp import *
from .exceptions import *
from .pluecker import *
from .serialize import *
from .stiefel import *
from .worstcase import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (certify, cli, csdecomp, exceptions, pluecker, serialize, stiefel, worstcase)
    for name in module.__all__
)
