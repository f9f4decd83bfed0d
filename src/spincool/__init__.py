"""Nuclear-spin-preserving sideband-cooling simulator for 87Sr.

Builds the 13-level atom-laser model with hyperfine and Zeeman structure,
integrates the Lindblad master equation, performs the dressed-state and
parameter-balancing analysis, and estimates laser budgets and the transfer
of the scheme to other alkaline-earth-like species.  The package re-exports
nothing: import from the submodules (spincool.analysis, spincool.lindblad,
spincool.srmodel, ...).
"""

__version__ = "0.1.0"
