"""Avoider-Enforcer edge games on K_n: engine, strategies, exact solver,
Turan machinery, and a regularity/pseudo-randomness verification suite.
Import each name from its module, e.g. `from edgegames.engine import play_match`."""

__version__ = "0.1.0"
