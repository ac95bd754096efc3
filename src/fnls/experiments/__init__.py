from .decoherence import decoherence_time, run_decoherence
from .dispersive import frequency_bump, run_dispersive_decay
from .galilean import run_galilean_error
from .report import ExperimentReport, loglog_fit
from .scattering import run_scattering_probe
from .smalldisp import run_small_dispersion

__all__ = [
    "ExperimentReport",
    "decoherence_time",
    "loglog_fit",
    "frequency_bump",
    "run_decoherence",
    "run_dispersive_decay",
    "run_galilean_error",
    "run_scattering_probe",
    "run_small_dispersion",
]
