"""direx: classical analysis for spot-checked randomness expansion.

Library layers, bottom up:

* :mod:`direx.model` — CHSH trial distributions, the Tsirelson-bounded
  polytope and its 80 extreme points (built in closed form),
  maximum-likelihood fitting, statistical strength, and the spot-check
  probability of a block position (``spot_probability``);
* :mod:`direx.pef` — probability estimation factors: optimisation,
  one interpolation across block positions (``PefTable._excess``, entered
  by position through ``PefTable.excess_at`` and ``PefTable.log2_f``),
  block rates and variances, min-entropy certificates;
* :mod:`direx.protocol` — block simulation, witness accumulation and
  file formats;
* :mod:`direx.ledger` — randomness accounting of a run: bits consumed,
  output length, expansion summary (no numpy);
* :mod:`direx.extractor` — seed/output budgets of the strong extractor
  (no numpy; mpmath only for near-integer ceilings);
* :mod:`direx.planner` — block counts, block lengths, thresholds and
  success probabilities for experiment design;
* :mod:`direx.data` — bundled reference counts and distributions;
* :mod:`direx.cli` — the ``direx`` command.

The names in ``__all__`` are loaded on first use (PEP 562), so importing
``direx`` or one light layer does not pull in numpy, mpmath or the
optimisers: ``from direx import seed_length`` loads the extractor alone.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names it exports at the package level
_EXPORTS = {
    "direx.extractor": (
        "ExtractorParams",
        "check_set_X",
        "max_kout",
        "seed_length",
        "smallest_prime_above",
    ),
    "direx.ledger": ("AccumulatorState", "consumed_bits", "expansion_summary"),
    "direx.model": (
        "ConditionalDistribution",
        "CountsTable",
        "PolytopeVertexSet",
        "enumerate_extreme_points",
        "fit_mle",
        "is_member_T",
        "spot_probability",
        "statistical_strength",
    ),
    "direx.pef": (
        "GainReport",
        "PefTable",
        "TrialPef",
        "block_gain",
        "build_pef_table",
        "entropy_certificate",
        "is_valid_pef",
        "optimize_trial_pef",
    ),
    "direx.planner": (
        "PlanResult",
        "expansion_feasible",
        "min_blocks",
        "optimal_block_length",
        "success_probability",
        "threshold_from_sigma",
    ),
    "direx.protocol": (
        "BlockRecord",
        "CycleData",
        "RunConfig",
        "accumulate",
        "simulate_block",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
#: layers exported by name, as ``from direx import *`` has always given them
_SUBMODULES = ("extractor", "model", "pef", "planner", "protocol")

__all__ = sorted([*_OWNER, *_SUBMODULES])


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(_OWNER[name]), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
