"""Degree-based graph irregularity measures with exhaustive small-graph verification."""

from . import enumeration, generators, graphs, io, measures, spectral
from .enumeration import *  # noqa: F403
from .generators import *  # noqa: F403
from .graphs import *  # noqa: F403
from .io import *  # noqa: F403
from .measures import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *graphs.__all__,
    *io.__all__,
    *measures.__all__,
    *spectral.__all__,
    *generators.__all__,
    *enumeration.__all__,
    "__version__",
]
