"""schrodmix: a spectral laboratory for a damped stochastic nonlinear
Schrodinger equation on the one-dimensional torus.

The pieces: band-limited fields and Sobolev bookkeeping (spectral), Haar-cell
colored noise (noise), a Strang-split integrator, the energy and resonance
calculus (dynamics), linearized/adjoint flows and controllability Gramians
(linearized), pseudo-inverse control synthesis (control), ensemble mixing
diagnostics, the coupled step and its contraction test (mixing), and
config/CLI/persistence plumbing (config, cli, store).
"""

# set before the submodules load: store stamps every run manifest with it
__version__ = "0.1.0"

from .spectral import (
    DampingProfile,
    FourierField,
    Grid,
    ValidationError,
    basis_field,
    bump_damping,
    constant_damping,
    plane_wave,
    sobolev_norm,
    zero_damping,
    zero_field,
)
from .noise import (
    NoisePath,
    NoiseSpec,
    RhoSpec,
    haar_eval,
    haar_inner,
    sample_noise_path,
    sample_noise_paths,
)
from .dynamics import (
    DEFAULT_DT,
    BlowUpError,
    SolverConfig,
    Trajectory,
    energy,
    energy_series,
    linear_group,
    markov_step,
    markov_step_batch,
    nmult,
    nnonres,
    nres,
    phase_theta,
    solve_nls,
    solve_nls_batch,
)
from .linearized import (
    GramianReport,
    assemble_gramian,
    control_response_matrix,
    duality_pairing,
    solve_adjoint_backward,
    solve_linearized,
)
from .control import (
    build_control_basis_map,
    compact_T_apply,
    equivalent_norm,
    pseudo_inverse_apply,
    regularized_pinv_solve,
    saturate_once,
    saturation_span,
    stabilizing_shift,
)
from .mixing import (
    CouplingReport,
    DecayReport,
    Ensemble,
    Functional,
    MixReport,
    ObservableDictionary,
    StabilizationReport,
    attractor_proximity,
    chain_seed_record,
    contraction_test,
    decay_experiment,
    default_dictionary,
    dual_lipschitz_estimate,
    evolve_ensemble,
    loglinear_fit,
    mixing_experiment,
    run_chain,
    solo_paths,
    synchronous_coupling_experiment,
    warm_start,
)
from .config import (
    ExperimentConfig,
    build_initial,
    load_config,
    random_h1_field,
    run_experiment,
    save_config,
)
from .store import (
    RunManifest,
    file_digest,
    read_json_report,
    read_manifest,
    read_noise_path_csv,
    read_trajectory_bin,
    read_trajectory_csv,
    report_dict,
    report_from_dict,
    write_json_report,
    write_manifest,
    write_noise_path_csv,
    write_trajectory_bin,
    write_trajectory_csv,
)
