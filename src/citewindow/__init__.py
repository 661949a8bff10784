"""Windowed h-index variants and citation-aging analytics.

The package models a researcher's record as per-paper, per-year citation
counts and derives time-restricted impact indices from it: the timed
h-index over a sliding publication/citation window, the 5-year index,
the author impact factor and the age-discounted contemporary index,
together with the aging analytics (quantile citation windows, citation
mass groups and their cumulative/yearly curves) that motivate choosing a
window length.

Each module's ``__all__`` is the package's public surface: the package
re-exports exactly those names.
"""

from . import aging, errors, indices, ingest, model
from .aging import *
from .errors import *
from .indices import *
from .ingest import *
from .model import *

__version__ = "0.1.0"

__all__ = sorted(aging.__all__ + errors.__all__ + indices.__all__ + ingest.__all__ + model.__all__)
