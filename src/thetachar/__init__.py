"""Theta characteristics over F2, theta-constant numerics, and moduli slopes.

Each layer's __all__ is the package's public surface: the package
re-exports it and declares no name of its own but __version__.
"""

from .amplitude import *
from .boundary import *
from .characteristics import *
from .picard import *
from .symplectic import *
from .theta import *
from .verify import *

__version__ = "0.1.0"
