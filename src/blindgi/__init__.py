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
    point_reflect,
)
from .patterns import EnsembleSpec
from .forward import (
    MeasurementSet,
    NoiseModel,
    OpticalConfig,
    PSF,
    psf_for,
    simulate,
)
from .correlation import (
    CorrelationImage,
    compensate,
    correlate,
    filter_model,
    magnitude_spectrum,
)
from .retrieval import (
    Reconstruction,
    ScheduleConfig,
    SupportMask,
    estimate_support,
    run,
)
from .evaluation import AlignmentResult, align_and_score, apply_alignment
from .config import RunConfig, SupportPolicy

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
