"""The run ledger: randomness spent by a run and the expansion it achieved.

Each block costs ``k`` bits for its length and ``BITS_PER_SPOT_CHECK`` for
the spot-check settings; a successful run's output, sized by the extractor,
is set against that input and the extractor seed.  Plain integers and
floats only, so that planning, accumulation and ``direx report`` share one
ledger and reporting needs no numerical layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

__all__ = [
    "BITS_PER_SPOT_CHECK",
    "ProtocolFailure",
    "AccumulatorState",
    "ExpansionReport",
    "consumed_bits",
    "experiment_output_length",
    "expansion_summary",
]

BITS_PER_SPOT_CHECK = 2


class ProtocolFailure(RuntimeError):
    """Raised when an operation requires a successful run."""


@dataclass
class AccumulatorState:
    """Running totals of an accumulation pass."""

    G_run: float = 0.0
    N_run: int = 0
    bits_consumed: int = 0
    succeeded: bool = False
    stop_block: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj) -> "AccumulatorState":
        """The state :meth:`to_dict` gave; ``ValueError`` on any other shape."""
        return cls(**plain_fields(cls, obj, "accumulator state"))


def plain_fields(cls, obj, what: str) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a decoded JSON object.

    A field annotated ``int`` takes an integer, ``float`` any number and
    ``bool`` a boolean; one annotated ``... | None`` may also be null or
    absent.  Anything else raises ``ValueError``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    kinds = {"int": int, "float": (int, float), "bool": bool}
    for f in fields(cls):
        kind, _, optional = f.type.partition(" | ")
        v = obj.get(f.name)
        if not (v is None and optional) and (
            isinstance(v, bool) != (kind == "bool") or not isinstance(v, kinds[kind])
        ):
            raise ValueError(f"{what}: {f.name!r} must be of type {f.type}")
    return {f.name: obj.get(f.name) for f in fields(cls)}


def consumed_bits(N_run: int, k: int) -> int:
    """Input randomness spent on block lengths and spot-check settings."""
    if N_run < 0:
        raise ValueError("N_run must be nonnegative")
    return N_run * (k + BITS_PER_SPOT_CHECK)


def experiment_output_length(N_b: int, k: int) -> int:
    """Padded output length m_in of a full run, in bits.

    Every block is zero-padded to ``2^k`` trials of 2 outcome bits, so the
    output has ``N_b * 2^k * 2`` bits whatever the realised block lengths.
    """
    return N_b * 2**k * 2


@dataclass(frozen=True)
class ExpansionReport:
    """Input/output accounting of a successful run."""

    k_out: int
    bits_consumed: int
    seed_bits: int
    k_in: int
    ratio: float
    net_bits: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


def expansion_summary(state: AccumulatorState, extractor, k: int) -> ExpansionReport:
    """Expansion ratio achieved by a successful accumulation.

    ``k_in`` counts the ``(k+2)`` bits per processed block plus the
    extractor seed; ``ratio = k_out / k_in``.
    """
    if not state.succeeded:
        raise ProtocolFailure("expansion summary requires a successful run")
    consumed = consumed_bits(state.N_run, k)
    if consumed != state.bits_consumed:
        raise ValueError("state ledger disagrees with (k+2) * N_run")
    k_in = consumed + extractor.d_s
    return ExpansionReport(
        k_out=extractor.k_out,
        bits_consumed=consumed,
        seed_bits=extractor.d_s,
        k_in=k_in,
        ratio=extractor.k_out / k_in,
        net_bits=extractor.k_out - k_in,
    )
