"""Directional spin-spin coupling through momentum-locked phonon channels.

Subpackages by concern: ``core`` (dense operator algebra over composite
spin/boson spaces), ``models`` (Hamiltonian and master-equation builders),
``dynamics`` (deterministic fixed-step evolution and rate fitting),
``materials`` (resonator coupling budgets), ``experiments`` (scripted,
reproducible studies), ``cli`` (config-driven runs with JSON/CSV output).
"""

from .core import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    basis_vector,
    boson_operators,
    commutator,
    embed,
    expectation,
    partial_trace,
    spin_operators,
    tensor_product,
)
from .dynamics import IntegratorConfig, Trajectory, evolve, evolve_nonhermitian, fit_exchange_rate
from .errors import (
    DispersiveLimitWarning,
    DomainError,
    FitError,
    IntegrationError,
    ResonanceError,
)
from .materials import (
    CouplingBudget,
    MaterialParams,
    ResonatorGeometry,
    builtin_material,
    coupling_g,
    coupling_table,
    detuning_prime,
    effective_gamma,
    resonator_mode,
    zero_point_strain,
)
from .models import (
    CascadeSpec,
    Generator,
    LindbladModel,
    ModeSpec,
    SpinSite,
    build_cascade_model,
    build_full_model,
    build_nonhermitian_hamiltonian,
    site_number_operators,
    total_excitation,
)
from .experiments import (
    ExperimentReport,
    cascade_chain,
    one_excited_state,
    single_spin_decay_model,
    decoherence_budget,
    elimination_validation,
    reciprocity_sweep,
    transfer_asymmetry,
)

__version__ = "0.1.0"
