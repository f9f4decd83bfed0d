"""Nuclear-spin-preserving sideband-cooling simulator for 87Sr.

Builds the 13-level atom-laser model with hyperfine and Zeeman structure,
integrates the Lindblad master equation, performs the dressed-state and
parameter-balancing analysis, and estimates laser budgets and the transfer
of the scheme to other alkaline-earth-like species.
"""

from .angmom import HalfInt, XiFactors, clebsch_gordan, ladder_a, ladder_b, xi_factors
from .analysis import (
    CoolingResult,
    DressedPair,
    balance_omega_pd,
    compute_nu,
    cool,
    dressed_pair,
    impurity_sweep,
    isotope_table,
    min_omega_ps,
    scaled_constants_overlaps,
    sensitivity_suite,
    table1_sweep,
)
from .hyperfine import (
    HyperfineConstants,
    SpinSpace,
    ZeemanParams,
    f_level_energy,
    f_splitting,
    hf_element,
    hf_matrix,
    zeeman_diag,
)
from .lindblad import (
    Trajectory,
    check_density_matrix,
    evolve,
    population,
    pure_density,
)
from .srmodel import (
    BasisState,
    CollapseOp,
    ModelParams,
    collapse_ops,
    hamiltonian,
    qubit_vectors,
    with_polarization_impurity,
)

__version__ = "0.1.0"
