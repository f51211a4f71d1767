"""Decision engine and numerical lab for the existence of an intermediate
reproducing kernel Hilbert space between two classical function spaces."""

__version__ = "0.1.0"

from .xrational import INF, ExtRational, deficiency, xr
from .spaces import (CoherentSet, DomainSpec, SpaceSpec, ball, besov,
                     c_infinity, coherent_closure, continuous_bounded, cube,
                     finite_metric, holder, lebesgue_lp, mixed_sobolev,
                     sequence_lp, slobodeckij, sobolev, sup_space,
                     triebel_lizorkin, validate_space, whole_space)
from .embeddings import (RULES, EmbedVerdict, chain_holds, embeds,
                         rewrite_identifications)
from .decider import (BORDERLINE, FEASIBLE, INFEASIBLE, STATUS_EXIT_CODES,
                      UNDETERMINED, UInterval, Verdict, WitnessChain, decide,
                      decide_bounded_target)
from .packing import (PackingResult, brute_force_packing, exponent_fit,
                      greedy_packing)
from .bumps import (BumpFamily, SignedSum, SmoothBump, TentMember, smooth_family,
                    tent_family)
from .norms import (AccuracyError, DivergenceError, NormFunctional,
                    QuadratureConfig, hoelder_norm, lp_norm, slobodeckij_norm,
                    slobodeckij_seminorm)
from .rademacher import (RademacherEstimate, ScanSeries, rademacher_norm, scan,
                         seq_l2_norm)
from .irkbs import (DecompositionReport, SeriesSpec, check_applicability,
                    cosine_series, radius_lower_bound, split_series)
from .report import Report
