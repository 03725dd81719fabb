"""spadkit: timestamp-stream analysis and simulation for linear SPAD arrays."""

__version__ = "0.1.0"

from .errors import CalibrationError, DataError, FitError, StreamFormatError
from .timestream import (
    AcquisitionCycle,
    PhotonStream,
    SensorConfig,
    StreamHeader,
    TimestampRecord,
    read_stream,
    write_stream,
)
from .tdc import TdcLut, apply_lut, build_lut
from .rates import RateReport, compute_rates, split_subsets
from .coincidence import (
    DeltaHistogram,
    PixelIndex,
    build_histogram,
    default_bin_width_ps,
    normalize_histogram,
    pair_histograms,
)
from .peakfit import (GaussianFit, TwoPeakFit, fit_gaussian, fit_gaussians,
                      fit_two_peaks)
from .crosstalk import CtCurve, CtEstimate, CtPoint, CtShape, ct_scan
from .offsets import (
    DelayVector,
    OffsetMeasurement,
    apply_delays,
    measure_offsets,
    solve_delays,
)
from .simulator import (
    BeamSpec,
    DcrProfile,
    SimConfig,
    SimTruth,
    simulate,
    simulate_code_density,
    theoretical_contrast,
)

__all__ = [
    "AcquisitionCycle",
    "BeamSpec",
    "CalibrationError",
    "CtCurve",
    "CtEstimate",
    "CtPoint",
    "CtShape",
    "DataError",
    "DcrProfile",
    "DelayVector",
    "DeltaHistogram",
    "FitError",
    "GaussianFit",
    "OffsetMeasurement",
    "PhotonStream",
    "PixelIndex",
    "RateReport",
    "SensorConfig",
    "SimConfig",
    "SimTruth",
    "StreamFormatError",
    "StreamHeader",
    "TdcLut",
    "TimestampRecord",
    "TwoPeakFit",
    "apply_delays",
    "apply_lut",
    "build_histogram",
    "build_lut",
    "compute_rates",
    "ct_scan",
    "default_bin_width_ps",
    "fit_gaussian",
    "fit_gaussians",
    "fit_two_peaks",
    "measure_offsets",
    "normalize_histogram",
    "pair_histograms",
    "read_stream",
    "simulate",
    "simulate_code_density",
    "solve_delays",
    "split_subsets",
    "theoretical_contrast",
    "write_stream",
]
