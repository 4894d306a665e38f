"""direx: classical analysis for spot-checked randomness expansion.

Library layers, bottom up:

* :mod:`direx.model` — CHSH trial distributions, the Tsirelson-bounded
  polytope and its 80 extreme points (built in closed form),
  maximum-likelihood fitting, statistical strength;
* :mod:`direx.pef` — probability estimation factors: optimisation,
  one interpolation path across block positions (``PefTable.excess_at``),
  block rates and variances, min-entropy certificates;
* :mod:`direx.protocol` — block simulation, witness accumulation,
  randomness accounting and file formats;
* :mod:`direx.extractor` — seed/output budgets of the strong extractor;
* :mod:`direx.planner` — block counts, block lengths, thresholds and
  success probabilities for experiment design;
* :mod:`direx.data` — bundled reference counts and distributions;
* :mod:`direx.cli` — the ``direx`` command.
"""

from direx.extractor import ExtractorParams, check_set_X, max_kout, seed_length, smallest_prime_above
from direx.model import (
    ConditionalDistribution,
    CountsTable,
    InputDistribution,
    PolytopeVertexSet,
    enumerate_extreme_points,
    fit_mle,
    input_distribution,
    is_member_T,
    statistical_strength,
)
from direx.pef import (
    GainReport,
    PefTable,
    TrialPef,
    block_gain,
    build_pef_table,
    entropy_certificate,
    is_valid_pef,
    optimize_trial_pef,
)
from direx.planner import (
    PlanResult,
    expansion_feasible,
    min_blocks,
    optimal_block_length,
    success_probability,
    threshold_from_sigma,
)
from direx.protocol import (
    AccumulatorState,
    BlockRecord,
    CycleData,
    RunConfig,
    accumulate,
    consumed_bits,
    expansion_summary,
    simulate_block,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
