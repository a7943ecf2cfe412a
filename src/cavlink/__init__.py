"""cavlink: coupled-mode toolkit for a cavity wirelessly coupled to an LC resonator."""

from .coupled_modes import (
    DEFAULT_SIDEBAND_THRESHOLD,
    ComplexTrace,
    DerivedRates,
    DressedModes,
    SystemParams,
    TraceKind,
    dressed_modes,
    effective_rates,
    mode_matrix,
    normalized_power_trace,
    resolved_sideband_ratio,
    s11,
    s21,
)
from .design import (
    ALL_PRESETS,
    DESIGN_PRESET,
    HAT_PRESETS,
    SWEEPABLE_FIELDS,
    SweepResult,
    SweepRow,
    SweepSpec,
    SweepTargets,
    bare_loss_for_dissipation_fraction,
    find_target_detuning,
    run_sweep,
    with_dressed_detuning,
)
from .electromechanics import (
    MechanicalMode,
    coupling_for_damping,
    electromechanical_damping,
    lower_sideband_pump,
    multi_mode_omit,
    pumped_lc_params,
    transparency_signal,
)
from .errors import (
    BranchAssignmentError,
    CavlinkError,
    ConfigError,
    DegenerateParameterError,
    InvalidInputError,
    NoSolutionError,
    PeakAmbiguityError,
    SingularResponseError,
    TraceParseError,
    ValidityWarning,
    WindowTooNarrowError,
)
from .lineshape import (
    FitConfig,
    FitResult,
    MultiTraceFit,
    add_noise,
    auto_initial_guess,
    extract_fwhm,
    fit_trace,
    multi_trace_fit,
)
from .units import TWO_PI, angular_to_hz, hz_to_angular

__version__ = "0.1.0"
