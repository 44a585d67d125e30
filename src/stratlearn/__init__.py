"""Online strategy learning for ordered sets of related solver problems."""

from .backends import SyntheticBackend, SyntheticLandscape, Verdict
from .engine import EpochPolicy, run, summarize
from .space import builtin_space

__version__ = "0.1.0"
