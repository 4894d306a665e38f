"""Spot-checked block protocol: simulation, accumulation and file formats.

A block is a run of trials whose length ``L`` is uniform on ``1..2^k``; all
trials before the last use the fixed settings 00 and the final spot-check
trial draws its settings uniformly.  Blocks are sparse: non-spot trials
with no detections (outcome 00) are implicit, only detection events and the
spot trial are stored.  In memory a set of blocks is always a
:class:`Blocks`, five integer columns ``(L, block_of_event, pos, out,
spot)`` from the sampler through the ``.blocks`` files to the witness
kernel; its constructor is the one place blocks are validated, so a file
that decodes to an impossible block is rejected as it is read.  Slices of
validated blocks are built unchecked.
:class:`BlockRecord` is a per-block view of those columns, built on demand.

The analysis consumes blocks in time order.  Each cycle of data provides
calibration counts from which the honest-device distribution is refitted
and the per-position PEF table rebuilt (at fixed power and middle anchor);
every block then adds ``sum_j log2 F_j(c_j z_j) / beta`` to the running
entropy witness until the success threshold is reached.

Randomness budget: each block costs ``k`` bits for its length and 2 bits
for the spot-check settings; that accounting lives in :mod:`direx.ledger`,
whose names this module re-exports.  Counter-based generators keyed by
``(seed, stream)`` make simulated datasets and witness traces bit-exact
reproducible.  Simulation and analysis each run in one process, in one
pass.  Only :func:`accumulate` needs :mod:`direx.pef`, so it is imported
there: simulating loads no PEF layer.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from direx.ledger import (
    BITS_PER_SPOT_CHECK,
    AccumulatorState,
    ExpansionReport,
    ProtocolFailure,
    consumed_bits,
    experiment_output_length,
    expansion_summary,
)
from direx.model import MAX_K, ConditionalDistribution, CountsTable, fit_mle

if TYPE_CHECKING:
    from direx.pef import PefTable

__all__ = [
    "BlockRecord",
    "Blocks",
    "RunConfig",
    "AccumulatorState",
    "ExpansionFile",
    "CycleData",
    "ExpansionReport",
    "CalibrationShortfallError",
    "ProtocolFailure",
    "stream_rng",
    "simulate_block",
    "simulate_calibration_counts",
    "simulate_dataset",
    "simulate_run_witness",
    "accumulate",
    "consumed_bits",
    "expansion_summary",
    "write_blocks",
    "read_blocks",
    "write_dataset",
    "dataset_layout",
    "load_dataset",
    "write_trace_csv",
]


class CalibrationShortfallError(ValueError):
    """A cycle cannot assemble the minimum number of calibration trials."""


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for an independent, reproducible stream.

    The seed enters the key modulo 2^64, as an unsigned integer: a list of
    Python ints would pass through float64 from 2^63 up, where distinct
    seeds share a key.
    """
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


#: a seed's streams lie in disjoint ranges of 2^48: witness runs take theirs
#: as given below 2^48, calibration counts and dataset chunks the next two
_CALIB_STREAMS, _CHUNK_STREAMS = 1 << 48, 2 << 48
_CHUNK = 1 << 12  # blocks per draw and per dataset stream; bounds memory at k=17


class _EventsView:
    """A block's ``(position, outcome)`` pairs over its column slices.

    Records iterated out of :class:`Blocks` hold no Python object per
    event; a view compares equal to the tuple of its pairs.
    """

    __slots__ = ("pos", "out")

    def __init__(self, pos: np.ndarray, out: np.ndarray):
        self.pos, self.out = pos, out

    def __len__(self) -> int:
        return self.pos.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.pos.tolist(), self.out.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _EventsView)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class BlockRecord:
    """One block as plain values: a view of :class:`Blocks`, or made by hand.

    ``events`` lists ``(position, outcome)`` for pre-spot trials with a
    detection (outcome index != 0), positions strictly increasing in
    ``1..length-1``; every other pre-spot trial implicitly has settings 00
    and outcome 00.  The spot-check trial sits at ``position == length``.
    Records are checked when they enter :meth:`Blocks.from_records`.
    """

    length: int
    events: tuple[tuple[int, int], ...] | _EventsView
    spot_settings: int
    spot_outcome: int


def _spot_codes(settings: np.ndarray, outcome: np.ndarray) -> np.ndarray:
    """``4 * settings + outcome``, or -1 where either is not a pair index."""
    return np.where((settings | outcome) >> 2 == 0, 4 * settings + outcome, -1)


_COLUMNS = ("L", "block_of_event", "pos", "out", "spot")


@dataclass(frozen=True, eq=False)
class Blocks:
    """Blocks as int64 columns ``(L, block_of_event, pos, out, spot)``.

    Block ``b`` has length ``L[b]`` and spot-check cell ``spot[b] = 4 *
    settings + outcome``; event ``i``, in block order, is a detection with
    outcome ``out[i]`` at position ``pos[i]`` of block ``block_of_event[i]``.
    The constructor validates every block.  A contiguous slice of
    validated blocks is valid by construction, so slices are ``Blocks``
    built without the checks.  ``==`` compares every column and iteration
    yields :class:`BlockRecord` views.
    """

    L: np.ndarray
    block_of_event: np.ndarray
    pos: np.ndarray
    out: np.ndarray
    spot: np.ndarray

    def __post_init__(self):
        """Raise a one-line ``ValueError`` naming the first bad block."""
        for name, col in zip(_COLUMNS, self.columns):
            object.__setattr__(self, name, np.asarray(col, np.int64))
        L, boe, pos, out, spot = self.columns
        if boe.size and (boe[0] < 0 or boe[-1] >= L.size or (boe[1:] < boe[:-1]).any()):
            raise ValueError("block_of_event must be non-decreasing block indices")
        rising = np.ones(pos.size, bool)
        rising[1:] = (boe[1:] != boe[:-1]) | (pos[1:] > pos[:-1])
        faults = [
            (int(bad[0]), what)
            for bad, what in (
                (np.flatnonzero(L < 1), "length below 1"),
                (np.flatnonzero(spot >> 4 != 0), "spot settings or outcome outside 0..3"),
                (boe[(out < 1) | (out > 3)], "event outcome is not a detection 1..3"),
                (boe[(pos < 1) | (pos >= L[boe])], "event position outside 1..L-1"),
                (boe[~rising], "event positions not strictly increasing"),
            )
            if bad.size
        ]
        if faults:
            raise ValueError("block {}: {}".format(*min(faults, key=lambda f: f[0])))

    @classmethod
    def from_records(cls, records: Iterable[BlockRecord]) -> "Blocks":
        """Columns of records made outside the program, validated."""
        records = list(records)
        ev = np.array([e for r in records for e in r.events], np.int64).reshape(-1, 2)
        spot = np.array([(r.spot_settings, r.spot_outcome) for r in records], np.int64)
        return cls(
            [r.length for r in records],
            np.repeat(np.arange(len(records)), [len(r.events) for r in records]),
            ev[:, 0],
            ev[:, 1],
            _spot_codes(*spot.reshape(-1, 2).T),
        )

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.L, self.block_of_event, self.pos, self.out, self.spot

    def __len__(self) -> int:
        return self.L.size

    def __getitem__(self, index: slice) -> "Blocks":
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("Blocks slices must be contiguous")
        a, b = np.searchsorted(self.block_of_event, (start, max(start, stop)))
        boe = self.block_of_event[a:b]
        cols = (
            self.L[start:stop],
            boe - start if start else boe,
            self.pos[a:b],
            self.out[a:b],
            self.spot[start:stop],
        )
        # a run of valid blocks is valid: the slice skips the constructor's checks
        part = object.__new__(Blocks)
        part.__dict__.update(zip(_COLUMNS, cols))
        return part

    def __eq__(self, other) -> bool:
        if not isinstance(other, Blocks):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))

    def __iter__(self) -> Iterator[BlockRecord]:
        ends = np.searchsorted(self.block_of_event, np.arange(1, len(self) + 1))
        start = 0
        for L, end, spot in zip(self.L.tolist(), ends.tolist(), self.spot.tolist()):
            events = _EventsView(self.pos[start:end], self.out[start:end])
            yield BlockRecord(L, events, spot >> 2, spot & 3)
            start = end


def _join(parts: Sequence[tuple[np.ndarray, ...]]) -> Blocks:
    """One :class:`Blocks` from column tuples, in order."""
    first = np.cumsum([0] + [len(p[0]) for p in parts])
    L, boe, pos, out, spot = zip(*parts)
    boe = [b + f for b, f in zip(boe, first)]
    return Blocks(*map(np.concatenate, (L, boe, pos, out, spot)))


@dataclass(frozen=True)
class RunConfig:
    """Protocol parameters fixed before a run."""

    k: int
    beta: float
    G_min: float
    N_b: int
    n_calib_min: int
    seed: int
    deadtime_trials: int = 0
    check_granularity: str = "block"  # or "file"

    def __post_init__(self):
        if not 0 <= self.k <= MAX_K:
            raise ValueError(f"k must lie in 0..{MAX_K}, got {self.k}: .blocks files store lengths as u32")
        if not (math.isfinite(self.beta) and math.isfinite(self.G_min)):
            raise ValueError(f"beta and G_min must be finite, got {self.beta} and {self.G_min}")
        if self.beta <= 0 or self.N_b <= 0 or self.n_calib_min < 0:
            raise ValueError("beta, N_b must be positive; n_calib_min nonnegative")
        if self.deadtime_trials < 0:
            raise ValueError("deadtime_trials must be nonnegative")
        if self.check_granularity not in ("block", "file"):
            raise ValueError("check_granularity must be 'block' or 'file'")


@dataclass(frozen=True)
class ExpansionFile:
    blocks: Blocks
    trailing_calibration: CountsTable


@dataclass(frozen=True)
class CycleData:
    """One acquisition cycle: leading calibration, then expansion files."""

    calibration: CountsTable
    files: tuple[ExpansionFile, ...]

    @property
    def blocks(self) -> tuple[BlockRecord, ...]:
        return tuple(b for f in self.files for b in f.blocks)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _sample_blocks(
    nu_table: np.ndarray, k: int, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Draw ``m`` honest blocks as ``(L, block_of_event, pos, out, spot)``.

    One draw on ``0..2^(k+2)-1`` per block gives its length and spot
    settings.  The pre-spot trials of all blocks form one Bernoulli(p_det)
    stream whose detections are placed by cumulative geometric gaps: exact,
    and distinct by construction.  Detection and spot outcomes share one
    CDF lookup; ``spot`` is ``4 * settings + outcome``.
    """
    v = rng.integers(0, 2 ** (k + 2), size=m)
    L, spot_s = (v >> 2) + 1, v & 3
    cdf = np.cumsum(nu_table, axis=1)
    p_det = 1.0 - cdf[0, 0]
    ends = np.cumsum(L - 1)
    n_trials = int(ends[-1])
    hits, last = [np.empty(0, np.int64)], -1
    while p_det > 0 and last < n_trials - 1:
        mean = (n_trials - 1 - last) * p_det
        gaps = rng.geometric(p_det, size=int(mean + 4 * math.sqrt(mean)) + 16)
        # a gap past the end ends the stream; clipping keeps cumsum in range
        np.minimum(gaps, n_trials + 1, out=gaps)
        np.cumsum(gaps, out=gaps)
        gaps += last
        hits.append(gaps)
        last = int(gaps[-1])
    t = np.concatenate(hits)
    t = t[: np.searchsorted(t, n_trials)]  # t is strictly increasing
    counts = np.diff(np.searchsorted(t, ends), prepend=0)
    boe = np.repeat(np.arange(m), counts)
    pos = np.repeat(ends - L, counts)
    np.subtract(t, pos, out=pos)
    u = rng.random(t.size + m)
    u_det = u[: t.size]
    u_det *= p_det
    u_det += cdf[0, 0]
    # a CDF row is nondecreasing, so an outcome is the count of its entries <= u
    out = np.zeros(t.size, np.uint8)
    for c in cdf[0, :3]:
        out += u_det >= c
    spot_out = (u[t.size :, None] >= cdf[spot_s, :3]).sum(axis=1)
    return L, boe, pos, out.astype(np.int64), 4 * spot_s + spot_out


def simulate_block(
    nu_h: ConditionalDistribution, k: int, rng: np.random.Generator
) -> BlockRecord:
    """Draw one honest block.

    The block length is uniform on ``1..2^k``; pre-spot trials are i.i.d.
    with outcome law ``nu_h(.|00)``, their detections placed exactly by
    geometric skip-sampling; the spot trial uses uniform settings.  This is
    the columnar sampler behind :func:`simulate_run_witness` at one block.
    """
    (record,) = Blocks(*_sample_blocks(nu_h.table, k, 1, rng))
    return record


def simulate_calibration_counts(
    nu_h: ConditionalDistribution, n_trials: int, rng: np.random.Generator
) -> CountsTable:
    """Counts of calibration trials with uniform settings."""
    joint = (nu_h.table / 4.0).ravel()
    draw = rng.multinomial(n_trials, joint)
    return CountsTable(draw.reshape(4, 4))


def simulate_dataset(
    nu_h: ConditionalDistribution,
    cfg: RunConfig,
    blocks_per_file: int,
    files_per_cycle: int,
    calib_trials: int,
    trailing_calib_trials: int,
    threads: int = 1,
) -> tuple[list[CycleData], dict]:
    """Materialise an honest dataset in the cycle/file layout.

    Blocks are drawn ``_CHUNK`` at a time: chunk ``c`` (blocks from ``c *
    _CHUNK``) is one draw on the stream ``(seed, _CHUNK_STREAMS + c)``.
    Calibration counts get their own stream range.  ``threads`` is accepted
    and has no effect: the work runs in this process.  Returns the cycles
    and a wall-clock summary that includes dead-time trials (skipped after
    each spot check, never recorded or analysed).
    """
    if blocks_per_file < 1 or files_per_cycle < 1:
        raise ValueError("blocks_per_file and files_per_cycle must be at least 1")
    blocks = _join([
        _sample_blocks(nu_h.table, cfg.k, min(_CHUNK, cfg.N_b - a), stream_rng(cfg.seed, stream))
        for stream, a in enumerate(range(0, cfg.N_b, _CHUNK), _CHUNK_STREAMS)
    ])

    def calibration(n_trials: int, stream: int) -> CountsTable:
        return simulate_calibration_counts(
            nu_h, n_trials, stream_rng(cfg.seed, _CALIB_STREAMS + stream)
        )

    starts = range(0, cfg.N_b, blocks_per_file)
    cycles = []
    for c, f0 in enumerate(range(0, len(starts), files_per_cycle)):
        stream = c * (files_per_cycle + 1)
        files = tuple(
            ExpansionFile(
                blocks=blocks[a : a + blocks_per_file],
                trailing_calibration=calibration(trailing_calib_trials, stream + 1 + j),
            )
            for j, a in enumerate(starts[f0 : f0 + files_per_cycle])
        )
        cycles.append(CycleData(calibration(calib_trials, stream), files))
    n_blocks = len(blocks)
    trials_recorded = int(blocks.L.sum())
    summary = {
        "n_blocks": n_blocks,
        "trials_recorded": trials_recorded,
        "deadtime_trials": cfg.deadtime_trials * n_blocks,
        "trials_wall_clock": trials_recorded + cfg.deadtime_trials * n_blocks,
        "bits_consumed": consumed_bits(n_blocks, cfg.k),
    }
    return cycles, summary


#: the settings-00 cells, the only columns the witness prefix sums read
_CELLS_00 = np.arange(4)[None, :]


def _witness_tables(table: PefTable):
    """Prefix sums and lookups for fast witness evaluation.

    Returns ``(prefix00, delta)`` where ``prefix00[l]`` is
    ``sum_{j<=l} log2 F_j(00,00)`` and ``delta[j-1, o]`` the correction for
    a detection with outcome ``o`` at position ``j`` (settings 00); only the
    four settings-00 columns are built.  The spot lookups, one cell per
    block, are read from the table itself.
    """
    log2f00 = table.log2_f(np.arange(1, table.n_positions + 1), cells=_CELLS_00)
    base00 = log2f00[:, 0]
    prefix00 = np.concatenate(([0.0], np.cumsum(base00)))
    delta = log2f00 - base00[:, None]
    return prefix00, delta


def _log2_pef_sums(table: PefTable, tables, L, boe, pos, out, spot) -> np.ndarray:
    """log2 block PEF products from ``(L, boe, pos, out, spot)`` columns.

    ``tables`` are :func:`_witness_tables` of ``table``.  ``np.add.at``
    adds each block's events in order, so every sum equals the one formed
    trial by trial for that block alone; the spot term ``log2 F_L(spot)``
    is read from each block's row of 16 cells.
    """
    prefix00, delta = tables
    totals = prefix00[L - 1]
    np.add.at(totals, boe, delta[pos - 1, out])
    totals += np.take_along_axis(table.log2_f(L), spot[:, None], axis=1)[:, 0]
    return totals


def block_log2_pef(record: BlockRecord, table: PefTable, tables=None) -> float:
    """log2 of the block PEF product, from the sparse record."""
    tabs = tables if tables is not None else _witness_tables(table)
    return float(_log2_pef_sums(table, tabs, *Blocks.from_records([record]).columns)[0])


def simulate_run_witness(
    table: PefTable,
    nu_h: ConditionalDistribution,
    n_blocks: int,
    seed: int,
    stream: int = 0,
) -> np.ndarray:
    """Per-block witness increments of one honest run, vectorised.

    Returns ``log2 G_i / beta`` for ``n_blocks`` simulated blocks on the
    ``(seed, stream)`` generator.  Blocks are drawn in chunks by the same
    columnar sampler as :func:`simulate_block` and summed by the witness
    kernel that :func:`accumulate` applies to recorded blocks.
    """
    if not 0 <= stream < _CALIB_STREAMS:
        raise ValueError("witness stream must lie in 0..2^48-1")
    rng = stream_rng(seed, stream)
    tabs = _witness_tables(table)
    out = np.empty(n_blocks)
    for done in range(0, n_blocks, _CHUNK):
        m = min(_CHUNK, n_blocks - done)
        cols = _sample_blocks(nu_h.table, table.k, m, rng)
        out[done : done + m] = _log2_pef_sums(table, tabs, *cols)
    return out / table.beta


# ---------------------------------------------------------------------------
# accumulation (the analysis pass)
# ---------------------------------------------------------------------------


def _usable_calibration(
    cycle: CycleData, previous: CycleData | None, n_calib_min: int, index: int
) -> CountsTable:
    """Calibration counts for cycle ``index``, borrowing from ``previous``.

    When the cycle's own calibration file is short, trailing calibration
    from the previous cycle's expansion files is added, last file first,
    until the minimum is reached.
    """
    counts = cycle.calibration.counts.copy()
    total = int(counts.sum())
    if total < n_calib_min and previous is not None:
        for f in reversed(previous.files):
            if total >= n_calib_min:
                break
            counts = counts + f.trailing_calibration.counts
            total = int(counts.sum())
    if total < n_calib_min:
        raise CalibrationShortfallError(
            f"cycle {index}: only {total} calibration trials available, "
            f"need {n_calib_min}"
        )
    return CountsTable(counts)


def accumulate(
    cycles: Iterable[CycleData],
    cfg: RunConfig,
    pef_builder: Callable[[ConditionalDistribution], PefTable],
    stop_on_success: bool = True,
    threads: int = 1,
) -> tuple[AccumulatorState, np.ndarray]:
    """Run the analysis pass over cycles of recorded data, in order.

    Per cycle, the honest-device distribution is refitted from the usable
    calibration counts and ``pef_builder`` turns it into the per-position
    table (the power must match ``cfg.beta`` and every anchor be a valid
    PEF at the polytope's vertices).  Blocks then update the
    running witness; the threshold test runs per block or per file
    according to ``cfg.check_granularity``.  Returns the final state and
    the witness trace, one row ``(block_index, G_run, bits_consumed)`` per
    block.

    ``cycles`` is walked once, so any iterable will do; only the previous
    cycle is kept, for calibration borrowing.  ``threads`` is accepted and
    has no effect: the pass runs in this thread.
    """
    from direx.pef import is_valid_pef

    state = AccumulatorState()
    rows: list[np.ndarray] = []
    per_file = cfg.check_granularity == "file"
    previous = None
    for ci, cycle in enumerate(cycles):
        if state.N_run >= cfg.N_b:
            break
        calib = _usable_calibration(cycle, previous, cfg.n_calib_min, ci)
        table = pef_builder(fit_mle(calib))
        previous = cycle
        if table.k != cfg.k or not math.isclose(table.beta, cfg.beta):
            raise ValueError(f"cycle {ci}: PEF table does not match the run configuration")
        if not all(map(is_valid_pef, table.anchors)):
            raise ValueError(f"cycle {ci}: PEF table anchor fails the PEF inequality")
        tabs = _witness_tables(table)
        for fi, f in enumerate(cycle.files):
            blocks = f.blocks[: cfg.N_b - state.N_run]
            if (blocks.L > 2**cfg.k).any():
                raise ValueError(f"cycle {ci}, file {fi}: block longer than 2^{cfg.k}")
            inc = _log2_pef_sums(table, tabs, *blocks.columns) / cfg.beta
            # increments can be negative: G_run is not monotone
            g_run = np.cumsum(np.concatenate(([state.G_run], inc)))[1:]
            crossed = np.flatnonzero(g_run >= cfg.G_min)
            if not per_file and not state.succeeded and crossed.size:
                state.succeeded = True
                state.stop_block = state.N_run + int(crossed[0]) + 1
                if stop_on_success:
                    g_run = g_run[: crossed[0] + 1]
            index = state.N_run + np.arange(1, g_run.size + 1)
            bits = index * (cfg.k + BITS_PER_SPOT_CHECK)
            rows.append(np.column_stack((index, g_run, bits)))
            state.N_run += g_run.size
            state.bits_consumed = consumed_bits(state.N_run, cfg.k)
            if g_run.size:
                state.G_run = float(g_run[-1])
            if per_file and not state.succeeded and state.G_run >= cfg.G_min:
                state.succeeded = True
                state.stop_block = state.N_run
            if state.succeeded and stop_on_success:
                return state, np.concatenate(rows)
            if state.N_run >= cfg.N_b:
                break
    return state, (np.concatenate(rows) if rows else np.empty((0, 3)))


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

_BLOCK_HEAD = struct.Struct("<IH")
_MAX_EVENTS = 0xFFFF  # the header's u16 detection count
_EVENT = np.dtype([("pos", "<u4"), ("out", "u1")])  # packed, 5 bytes
_SPOT = struct.Struct("<BB")


def write_blocks(blocks: Blocks, fh) -> int:
    """Binary little-endian block stream; returns the number written.

    Block ``b`` starts at byte ``8 b + 5 e`` for ``e`` events before it: a
    6-byte header, 5 bytes per event and 2 spot bytes.  A block header
    holds its detection count in 16 bits, so a block with more than
    65,535 detections raises ``ValueError`` before it is written.
    """
    n_ev = np.bincount(blocks.block_of_event, minlength=len(blocks)).tolist()
    events = np.empty(blocks.pos.size, _EVENT)
    events["pos"], events["out"] = blocks.pos, blocks.out
    start = 0
    for b, (L, n, spot) in enumerate(zip(blocks.L.tolist(), n_ev, blocks.spot.tolist())):
        if n > _MAX_EVENTS:
            raise ValueError(
                f"block {b} has {n} detections; "
                f"the .blocks format holds at most {_MAX_EVENTS} per block"
            )
        fh.write(_BLOCK_HEAD.pack(L, n))
        fh.write(events[start : start + n].tobytes())
        fh.write(_SPOT.pack(spot >> 2, spot & 3))
        start += n
    return len(blocks)


def read_blocks(fh) -> Blocks:
    """Decode a block stream into validated :class:`Blocks`.

    Only the 6-byte headers are walked in Python.  One byte mask over the
    stream then clears each block's header and spot bytes; the bytes left
    are the packed events, in order, and are read as one array.
    """
    data = fh.read()
    heads, at = [], 0
    while at + 6 <= len(data):
        heads.append(_BLOCK_HEAD.unpack_from(data, at))
        at += 8 + 5 * heads[-1][1]
    if at != len(data):
        raise ValueError("truncated block stream")
    L, counts = np.array(heads, np.int64).reshape(-1, 2).T
    raw = np.frombuffer(data, np.uint8)
    spot_at = 8 * np.arange(L.size) + 5 * np.cumsum(counts) + 6
    head_at = spot_at - 5 * counts - 6
    spot_bytes = spot_at[:, None] + np.arange(2)
    keep = np.ones(raw.size, bool)
    keep[head_at[:, None] + np.arange(6)] = False
    keep[spot_bytes] = False
    events = raw[keep].view(_EVENT)
    spot = raw[spot_bytes].astype(np.int64)
    boe = np.repeat(np.arange(L.size), counts)
    return Blocks(L, boe, events["pos"], events["out"], _spot_codes(*spot.T))


def write_dataset(cycles: Sequence[CycleData], path: str | Path, meta: dict) -> None:
    """Write cycles to a directory tree the accumulator can read back."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(json.dumps(meta, indent=1))
    for ci, cyc in enumerate(cycles):
        cdir = root / f"cycle_{ci:04d}"
        cdir.mkdir(exist_ok=True)
        (cdir / "calibration.json").write_text(cyc.calibration.to_json())
        for fi, f in enumerate(cyc.files):
            with open(cdir / f"expansion_{fi:04d}.blocks", "wb") as fh:
                try:
                    write_blocks(f.blocks, fh)
                except ValueError as e:
                    raise ValueError(f"cycle {ci}, file {fi}: {e}") from None
            (cdir / f"expansion_{fi:04d}.calib.json").write_text(
                f.trailing_calibration.to_json()
            )


def dataset_layout(path: str | Path) -> list[tuple[Path, list[tuple[Path, Path]]]]:
    """Per ``cycle_*`` directory, in reading order: its calibration file and
    the ``(expansion_*.blocks, expansion_*.calib.json)`` pair of each file."""
    layout = []
    for cdir in sorted(Path(path).glob("cycle_*")):
        blocks = sorted(cdir.glob("expansion_*.blocks"))
        pairs = [(b, b.with_suffix("").with_suffix(".calib.json")) for b in blocks]
        layout.append((cdir / "calibration.json", pairs))
    return layout


def load_dataset(path: str | Path) -> tuple[list[CycleData], dict]:
    """Read a dataset; a malformed expansion file's error names it."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    cycles = []
    for ci, (calib_path, pairs) in enumerate(dataset_layout(root)):
        calib = CountsTable.from_json(calib_path.read_text())
        files = []
        for fi, (bpath, tpath) in enumerate(pairs):
            try:
                with open(bpath, "rb") as fh:
                    blocks = read_blocks(fh)
                trailing = CountsTable.from_json(tpath.read_text())
            except ValueError as e:
                raise ValueError(f"cycle {ci}, file {fi}: {e}") from None
            files.append(ExpansionFile(blocks=blocks, trailing_calibration=trailing))
        cycles.append(CycleData(calibration=calib, files=tuple(files)))
    return cycles, manifest


def write_trace_csv(trace: np.ndarray, fh, decimation: int = 1) -> None:
    """Witness trace as CSV rows (block_index, G_run, bits_consumed): every
    ``decimation``-th row, and the last."""
    if decimation < 1:
        raise ValueError(f"decimation must be at least 1, got {decimation}")
    fh.write("block_index,G_run,bits_consumed\n")
    n = trace.shape[0]
    for i in range(0, n, decimation):
        bi, g, bits = trace[i]
        fh.write(f"{int(bi)},{float(g)!r},{int(bits)}\n")
    if n and (n - 1) % decimation != 0:
        bi, g, bits = trace[-1]
        fh.write(f"{int(bi)},{float(g)!r},{int(bits)}\n")
