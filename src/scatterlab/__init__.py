"""Scattering amplitudes from eikonal, Born, and partial-wave routes."""

__version__ = "0.1.0"

from .born import born1_amplitude, born_resummed_amplitude
from .config import (SOURCES, PartialWaveOptions, RunConfig, ThetaGrid,
                     parse_config)
from .cross_sections import (CrossSectionTable, PaperComparison,
                             differential, paper_formula_checks,
                             paper_totals, table_from_amplitudes,
                             total_integrated, total_optical)
from .eikonal import (Amplitude, Kinematics, amplitude_eikonal,
                      amplitude_paper_closed, chi, chi_closed,
                      momentum_transfer)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     PoleError, RangeError, ScatterError, SingularityError,
                     UnsupportedModelError)
from .partial_wave import (PhaseShiftSet, amplitude_partial_wave,
                           phase_shifts)
from .potentials import Gauss, TabulatedRadial, Yukawa, effective_radius
from .quadrature import QuadratureSettings
from .runner import RunManifest, SourceOutcome, run_scan

__all__ = [
    "__version__",
    "Amplitude", "Kinematics", "momentum_transfer", "chi", "chi_closed",
    "amplitude_eikonal", "amplitude_paper_closed",
    "born1_amplitude", "born_resummed_amplitude",
    "PhaseShiftSet", "phase_shifts", "amplitude_partial_wave",
    "effective_radius",
    "SOURCES", "CrossSectionTable", "PaperComparison", "differential",
    "total_optical", "total_integrated", "table_from_amplitudes",
    "paper_totals", "paper_formula_checks",
    "Yukawa", "Gauss", "TabulatedRadial",
    "QuadratureSettings",
    "RunConfig", "ThetaGrid", "PartialWaveOptions", "parse_config",
    "RunManifest", "SourceOutcome", "run_scan",
    "ScatterError", "DomainError", "SingularityError", "PoleError",
    "RangeError", "UnsupportedModelError", "ConfigError",
    "ConvergenceError",
]
