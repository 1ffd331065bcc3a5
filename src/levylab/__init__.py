"""Numerical laboratory for Euclidean random fields driven by generalized
(Levy) white noise.

The field phi solves (-Laplace + m0^2)^alpha phi = eta on a periodic lattice,
with eta a drift + Gaussian + compound-Poisson white noise.  The package
computes Schwinger (cumulant) functions analytically and from Monte-Carlo
ensembles, probes reflection positivity through Gram matrices of reflected
moments, and runs a momentum-support vanishing check on the regularized
truncated four-point Wightman kernel.
"""

from .errors import (ClassificationError, ConfigurationError,
                     ContractViolation, LevyLabError, NumericalError,
                     RangeError, SingularityError)
from .noise import (JumpLaw, LatticeField, LatticeSpec, LevyCharacteristic,
                    characteristic_functional, noise_cumulant, psi,
                    sample_noise)
from .greens import (ModelParams, SpectralDensity, green_real_fft,
                     green_real_kl, kl_momentum, rho, spectral_integral,
                     squared_momentum)
from .sampler import (Ensemble, read_ensemble, sample_ensemble,
                      sample_point_values, solve_spde, write_ensemble)
from .cumulants import (CumulantEstimate, analytic_truncated_schwinger,
                        empirical_two_point, full_schwinger_moment,
                        moments_from_cumulants, set_partitions)
from .rp import (GramReport, MonomialBasis, build_reflection_gram,
                 gram_report, min_eigenvalue, rp_scan, verify_witness,
                 witness_record)
from .wightman import (BaumannReport, IntegratorSpec, MassAssignment,
                       MomentumTestFunction, ShellRegularization,
                       baumann_check, make_spacelike_test, make_test,
                       shell_control_tests, wightman_n_regularized)
from .streams import substream, substream_seed

__version__ = "0.1.0"

__all__ = [
    "LevyLabError", "ConfigurationError", "RangeError", "SingularityError",
    "NumericalError", "ContractViolation", "ClassificationError",
    "JumpLaw", "LevyCharacteristic", "LatticeSpec", "LatticeField",
    "psi", "noise_cumulant", "characteristic_functional", "sample_noise",
    "ModelParams", "SpectralDensity", "squared_momentum", "green_real_fft",
    "green_real_kl", "kl_momentum", "rho", "spectral_integral",
    "Ensemble", "solve_spde", "sample_ensemble", "sample_point_values",
    "write_ensemble", "read_ensemble",
    "CumulantEstimate", "analytic_truncated_schwinger", "empirical_two_point",
    "full_schwinger_moment", "moments_from_cumulants", "set_partitions",
    "MonomialBasis", "GramReport", "build_reflection_gram", "gram_report",
    "min_eigenvalue", "rp_scan", "witness_record", "verify_witness",
    "MomentumTestFunction", "ShellRegularization", "MassAssignment",
    "IntegratorSpec", "BaumannReport", "make_test", "make_spacelike_test",
    "shell_control_tests", "wightman_n_regularized", "baumann_check",
    "substream", "substream_seed",
]
