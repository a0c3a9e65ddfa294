"""Indoor wireless QKD feasibility: optical channel models plus the
infinite-decoy BB84 key-rate bound, composed into secure-region sweeps.

The usual entry points are the named scenarios in :mod:`indoorqkd.experiments`
and the ``indoorqkd`` command line.  The package re-exports the ``__all__`` of
each layer (geometry, spectra, channel, noise, keyrate, experiments), so a
public name is declared once, in the module that defines it; the Monte-Carlo
oracle and the CLI stay in their own modules.
"""

from . import channel, experiments, geometry, keyrate, noise, spectra
from .channel import *  # noqa: F403
from .experiments import *  # noqa: F403
from .geometry import *  # noqa: F403
from .keyrate import *  # noqa: F403
from .noise import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for layer in (geometry, spectra, channel, noise, keyrate, experiments) for name in layer.__all__)]
