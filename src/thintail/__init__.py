"""thintail: operational-risk capital for aggregated conduct-risk losses.

Severity is modeled with very-thin-tailed power-exponential
distributions (Exp4 and the power-n family ExpN), fitted and validated
with an enclosed-area goodness-of-fit statistic, and convolved with a
frequency model by Monte Carlo to obtain the 99.9% value-at-risk.

Each public name is declared once, in its module's ``__all__``; the
package exports those lists in this order.
"""

from . import dist, fit, ingest, lda, tna
from .dist import *
from .tna import *
from .fit import *
from .lda import *
from .ingest import *

__version__ = "0.1.0"

__all__ = ["__version__", *dist.__all__, *tna.__all__, *fit.__all__, *lda.__all__, *ingest.__all__]
