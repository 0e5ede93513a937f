"""Reception probability and throughput for vehicular links at a

two-road intersection: analytic Laplace-transform pipeline plus a
Monte Carlo oracle, driven by a config/preset CLI."""

from .analytic import (EvalContext, InterferenceLT, WrongScenario,
                       analytic_view, eval_context, lt_interference_generic,
                       reception_probability, road_lt, throughput)
from .mac import (OffRoadPosition, WrongMac, access_probability,
                  access_probability_at, aloha_intensity, contention_mass,
                  csma_intensity)
from .model import (Aloha, Csma, Erlang, Exponential, LinkSpec, LogNormal,
                    NoMac, PathLossSpec, Position, RoadConfig, Scenario,
                    ValidationReport, distance, swap_roads, validate)
from .montecarlo import (OutageEstimate, SimSettings, simulate_outage,
                         simulate_outage_sweep, simulate_throughput,
                         thin_csma_matern2)
from .numerics import (NonConvergence, OrderTooHigh, PoleError,
                       QuadratureSettings, ToleranceNotMet, derivative_n,
                       gamma_fn, hyp2f1_regularized, integrate_line,
                       pochhammer)
from .propagation import (DegenerateGeometry, FadingLT, FitDegenerate,
                          UnsupportedDistribution, erlang_fit, fading_ccdf,
                          fading_lt, path_loss, sample_fading_array)

__version__ = "0.1.0"
