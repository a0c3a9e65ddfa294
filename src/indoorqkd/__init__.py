"""Indoor wireless QKD feasibility: optical channel models plus the
infinite-decoy BB84 key-rate bound, composed into secure-region sweeps.

The usual entry points are the named scenarios in :mod:`indoorqkd.experiments`
and the ``indoorqkd`` command line.  The lower layers (geometry, spectra,
channel, noise, keyrate) are importable on their own for custom studies.
"""

from .channel import (
    ChannelGains,
    ConvergenceReport,
    DetectorParams,
    ReflectionConvergenceWarning,
    los_gain_for,
    reflected_gain_convergence,
    total_reflected_gain,
)
from .experiments import (
    AMBIENT_SCENARIOS,
    LAMP_SCENARIOS,
    NOMINAL,
    SCENARIOS,
    OperatingPoint,
    Scenario,
    Setup,
    ambient_tolerance,
    build_setup,
    evaluate_point,
    path_loss_profile,
    secure_fov_boundary,
    sweep,
)
from .geometry import (
    DegenerateGeometryError,
    LinkGeometry,
    Point3,
    Pose,
    RoomScenario,
    SurfaceGrid,
    link_geometry,
    wall_and_floor_grids,
)
from .keyrate import (
    KeyRateReport,
    ProtocolParams,
    binary_entropy,
    secret_key_rate,
)
from .noise import (
    BLACKBODY_AMBIENT_W_NM_M2,
    NoiseBudget,
    dark_counts_per_pulse,
    isotropic_noise_power,
    lamp_noise_photons,
    matched_filter_bandwidth_nm,
    photons_per_pulse,
)
from .spectra import (
    OutOfBandError,
    SpectralCurve,
    SpectrumFormatError,
    SpectrumKindError,
    bundled_spectrum_path,
    density_at,
    irradiance_to_psd,
    load_spectrum_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Point3", "Pose", "LinkGeometry", "SurfaceGrid",
    "RoomScenario", "DegenerateGeometryError",
    "link_geometry", "wall_and_floor_grids",
    # spectra
    "SpectralCurve", "OutOfBandError", "SpectrumFormatError", "SpectrumKindError",
    "density_at", "irradiance_to_psd", "load_spectrum_csv", "bundled_spectrum_path",
    # channel
    "DetectorParams", "ChannelGains", "ConvergenceReport",
    "ReflectionConvergenceWarning", "los_gain_for",
    "total_reflected_gain", "reflected_gain_convergence",
    # noise
    "NoiseBudget", "BLACKBODY_AMBIENT_W_NM_M2",
    "matched_filter_bandwidth_nm", "isotropic_noise_power",
    "photons_per_pulse", "lamp_noise_photons", "dark_counts_per_pulse",
    # keyrate
    "ProtocolParams", "KeyRateReport", "binary_entropy", "secret_key_rate",
    # experiments
    "SCENARIOS", "AMBIENT_SCENARIOS", "LAMP_SCENARIOS", "NOMINAL",
    "Scenario", "Setup", "OperatingPoint",
    "build_setup", "evaluate_point", "sweep",
    "secure_fov_boundary", "ambient_tolerance", "path_loss_profile",
]
