"""Powered order statistics of the general error distribution: exact
finite-sample laws, every norming-constant family, and numerically
verifiable first- and second-order Gumbel expansions."""

__version__ = "0.1.0"

from . import expansions, ged, harness, norming, orderstats, specfun
from .specfun import *  # noqa: F401,F403
from .ged import *  # noqa: F401,F403
from .norming import *  # noqa: F401,F403
from .orderstats import *  # noqa: F401,F403
from .expansions import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__all__ = (specfun.__all__ + ged.__all__ + norming.__all__ + orderstats.__all__
           + expansions.__all__ + harness.__all__)
