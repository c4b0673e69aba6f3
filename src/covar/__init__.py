"""Confidence-variance reliability analysis for pseudo-label selection.

The package decomposes per-sample cross-entropy into a max-confidence
term and a residual-class-variance penalty with a certified remainder
bound, and selects reliable pseudo-labels without a confidence threshold
by spectrally partitioning samples in a 2-d (confidence, variance)
embedding.

Each module's ``__all__`` is its public API; the package re-exports all
of them.  So the attribute ``covar.pcos`` is the function ``pcos``, not
the module of that name, and ``import covar.pcos as m`` binds the
function too; ``importlib.import_module("covar.pcos")`` gives the module.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Bind the modules before the star imports: ``from .pcos import *``
# rebinds ``covar.pcos`` to the function of that name.
from . import errors as _errors
from . import stats as _stats
from . import decomposition as _decomposition
from . import pcos as _pcos
from . import baseline as _baseline
from . import simulator as _simulator
from . import io as _io
from . import cli as _cli
from .errors import *
from .stats import *
from .decomposition import *
from .pcos import *
from .baseline import *
from .simulator import *
from .io import *
from .cli import *

__all__ = ["__version__"]
__all__ += _errors.__all__
__all__ += _stats.__all__
__all__ += _decomposition.__all__
__all__ += _pcos.__all__
__all__ += _baseline.__all__
__all__ += _simulator.__all__
__all__ += _io.__all__
__all__ += _cli.__all__
