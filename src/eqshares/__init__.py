"""Exact-arithmetic participatory budgeting: rules, audits, benchmarks.

The package republishes the ``__all__`` of each library module, so every
public name is declared once, in its own module. ``eqshares.cli`` is not
imported here.
"""
from . import axioms, model, pabulib, rules, stats, synth
from .axioms import *
from .model import *
from .pabulib import *
from .rules import *
from .stats import *
from .synth import *

__version__ = "0.1.0"

__all__ = [
    *axioms.__all__, *model.__all__, *pabulib.__all__,
    *rules.__all__, *stats.__all__, *synth.__all__,
]
