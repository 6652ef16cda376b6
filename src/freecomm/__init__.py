"""Exact computation with finite-index subgroups of free groups and the
partial isomorphisms between them.

The words module handles freely reduced words; stallings builds folded
core graphs for subgroup algebra; commensurator works with isomorphisms
between finite-index subgroups up to agreement on a common subgroup;
scenarios packages complete constructions as self-checking reports; cli
exposes everything to the shell.
"""

from .errors import *
from .words import *
from .stallings import *
from .commensurator import *
from .scenarios import *

__version__ = "0.1.0"
