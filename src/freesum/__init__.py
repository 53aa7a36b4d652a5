"""Free probability on the line and restricted Minkowski sum experiments.

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports their union.
"""

from . import cumulants, errors, freeconv, freeentropy, geometry, measure, microstates, transform
from .cumulants import *  # noqa: F403
from .errors import *  # noqa: F403
from .freeconv import *  # noqa: F403
from .freeentropy import *  # noqa: F403
from .geometry import *  # noqa: F403
from .measure import *  # noqa: F403
from .microstates import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (
        cumulants, errors, freeconv, freeentropy, geometry, measure, microstates, transform
    )
    for name in module.__all__
)
