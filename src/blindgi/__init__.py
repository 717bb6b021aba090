"""Ghost imaging with preset source patterns through an unknown scattering
layer: forward simulation, pattern-bucket correlation spectra, transfer-
function models, and phase-retrieval reconstruction.
"""

from .errors import (
    BlindGIError,
    ConfigError,
    DataError,
    FormatError,
    NumericalError,
    UsageError,
)
from .grid import (
    Grid2D,
    MagnitudeSpectrum,
    RealImage,
    circ_convolve,
    disk_autocorrelation,
    point_reflect,
)
from .patterns import EnsembleSpec, Pattern, ensemble_autocorrelation, generate_pattern
from .forward import (
    MeasurementSet,
    NoiseModel,
    OpticalConfig,
    PSF,
    bucket,
    illuminate,
    lens_psf,
    simulate,
    speckle_psf,
)
from .correlation import (
    CorrelationImage,
    FilterModel,
    compensate,
    correlate,
    filter_model,
    magnitude_spectrum,
)
from .retrieval import (
    Reconstruction,
    ScheduleConfig,
    SupportMask,
    er_step,
    estimate_support,
    hio_step,
    project_magnitude,
    run,
)
from .evaluation import AlignmentResult, align_and_score, apply_alignment
from .config import RunConfig, SupportPolicy

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
