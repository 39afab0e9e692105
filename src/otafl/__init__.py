"""Analog over-the-air federated learning under heavy-tailed channel noise.

A desk-scale simulator and analysis library: symmetric alpha-stable noise,
Rayleigh-faded superposition aggregation, median-anchored and norm-based
server-side gradient clipping, and Monte Carlo verification of the clipping
probability law and the convergence bound.

The package republishes each library module's ``__all__``; ``config`` and
``cli`` stay out of it, so importing ``otafl`` never loads yaml.
"""

from .analysis import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .clipping import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .fl_core import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .stable_noise import *  # noqa: F401,F403

__version__ = "0.1.0"
