"""addcomb: computational additive combinatorics on explicit finite abelian groups.

Exact Fourier analysis of set indicators, large spectra, Bohr sets, Ruzsa
and Chang covering, Bourgain systems with the Birkhoff chain metric, and the
Freiman-type containment pipeline, all over Z_{n1} x ... x Z_{nk} with
counting-measure conventions and brute-force verification at desk scale.
"""

from .bohr import (BohrSet, DimensionEstimate, NestedBohrAudit, RoundingCheck,
                   bohr_family, bohr_set, dimension_estimate,
                   dyadic_dimension_grid, nearest_int_dist, nested_bohr_audit,
                   rounding_check)
from .bourgain import (BirkhoffMetric, BourgainSystem, SandwichVerdict,
                       birkhoff_metric, constant_family, interval_family,
                       sandwich_audit, subgroup_generated, system_from_balls)
from .covering import CoverCertificate, chang_cover, ruzsa_cover
from .fourier import (DualFunction, MomentBoundAudit, MomentValue, convolve,
                      moment_detail, moment_lower_bound_audit, parseval_audit,
                      transform)
from .groups import Character, FinAbGroup, GroupElement, GroupMismatchError
from .pipeline import (FreimanConfig, FreimanReport, FreimanRun, LowerboundAudit,
                       SpectrumCover, find_l, lowerbound_audit, run_freiman,
                       spectrum_cover)
from .sets import (GroupSet, GrowthProfile, GuardExceededError, Multiples,
                   difference, growth_profile, iterate, negate, prog, sumset)
from .spectrum import Spectrum, lspec, spectral_distance

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
