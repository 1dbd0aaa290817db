"""Notification policies for volunteer crowdsourcing platforms.

Models a platform that notifies volunteers about time-sensitive tasks while
each notification knocks the volunteer into a random inactivity period.
Provides the benchmark program that caps every online policy, three ex-ante
fractional solvers, the sparse and scaled-down notification policies plus
belief-based heuristics, a seeded Monte-Carlo simulator with an exact
small-instance oracle, canonical hardness instances, and the hazard-rate
bound curve. The top-level namespace is the __all__ of core, exante,
policies, sim and bounds; the CLI's names live in volnotify.cli.
"""

from . import bounds, core, exante, policies, sim
from .core import *
from .exante import *
from .policies import *
from .sim import *
from .bounds import *

__all__ = [*core.__all__, *exante.__all__, *policies.__all__, *sim.__all__, *bounds.__all__]

__version__ = "0.1.0"
