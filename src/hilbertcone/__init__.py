"""Hilbert projective metric, Birkhoff contraction, and simplex geometry.

The package exports each layer's ``__all__`` and the error classes; those
lists are the one statement of the public API.
"""

from .core import *  # noqa: F403
from .contraction import *  # noqa: F403
from .simplex import *  # noqa: F403
from .bounds import *  # noqa: F403
from .errors import *  # noqa: F403  (no __all__: its public names are the error classes)

__version__ = "0.1.0"
