"""nlslab: exact lattice counting, short-time L6 scans on the torus, and the
modified-energy symbol stack for quintic NLS."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CalibrationError,
    CapExceededError,
    ConfigError,
    IntegrationError,
)
from .rng import stream  # noqa: F401
from .lattice import (  # noqa: F401
    AnnulusSpec,
    CLOSED_CLOSED,
    CLOSED_OPEN,
    CountRecord,
    DEEP_HOLE_OFFSETS,
    HEX_FORM,
    QuadraticForm2,
    SQUARE_FORM,
    adversarial_centers,
    annulus_area,
    annulus_width,
    count_points,
    count_points_naive,
    gauss_error,
    random_centers,
    scan_hypothesis_h,
)
from .plane import (  # noqa: F401
    CellCheck,
    PlaneSliceSpec,
    ReductionCalibration,
    VerificationReport,
    calibrate_reduction,
    count_plane_slice,
    verify_reduction,
)
from .fourier import (  # noqa: F401
    FourierState,
    evolve_linear,
    rescale,
)
from .strichartz import (  # noqa: F401
    ChainReport,
    HSpectrum,
    ScanRecord,
    StrichartzScanResult,
    chain_inequality_ratio,
    dyadic_block_average,
    h_spectrum,
    l6_norm_quadrature,
    l6_time_integral_exact,
    strichartz_scan,
    sup_dyadic_block_average,
)
from .trilinear import (  # noqa: F401
    GainReport,
    SupReport,
    TrendReport,
    TrilinearSpec,
    UvReport,
    count_A_set,
    enhanced_gain_K,
    normalized_sup_trend,
    standard_geometries,
    sup_count_A,
    trilinear_l2_ratio,
    uv_change_of_variables_check,
)
from .symbols import (  # noqa: F401
    DEFAULT_THRESHOLDS,
    FreqTuple,
    KIND_NAMES,
    MultiplierParams,
    ResonanceVerdict,
    SCAN_THRESHOLDS,
    SYMBOL_IDS,
    Thresholds,
    apply_I,
    bound_scan_symbols,
    classify_resonance,
    dyadic_class,
    energy_e1i,
    evaluate_symbol,
    homogeneous_h1_sq,
    in_upsilon6,
    l6_now,
    lambda_n_evaluate,
    multiplier_m,
    omega_n,
    support_tuples,
    symbol_fn,
)
from .galerkin import (  # noqa: F401
    FtcReport,
    Trajectory,
    energy_drift,
    ftc_residual,
    hamiltonian_energy,
    integrate_galerkin,
)
