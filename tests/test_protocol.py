"""Simulation statistics, accumulation semantics and accounting tests."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import pef, protocol
from direx.extractor import ExtractorParams
from direx.model import ConditionalDistribution, fit_mle
from direx.protocol import (
    AccumulatorState,
    BlockRecord,
    Blocks,
    CalibrationShortfallError,
    CycleData,
    ExpansionFile,
    ProtocolFailure,
    RunConfig,
    accumulate,
    consumed_bits,
    expansion_summary,
    simulate_block,
    simulate_calibration_counts,
    simulate_dataset,
    simulate_run_witness,
    stream_rng,
)

GOLD_EXTRACTOR = ExtractorParams(
    m_in=14_698_652_631_040,
    sigma_in=1_181_264_480,
    eps_ext=1.78e-9,
    eps=5.7e-7,
    k_out=1_181_264_237,
    d_s=3_725_074,
    w=331,
)


class TestSimulateBlock:
    def test_k0_blocks_are_single_spot_checks(self, commissioning):
        rng = stream_rng(1)
        for _ in range(200):
            rec = simulate_block(commissioning["distribution"], 0, rng)
            assert rec.length == 1
            assert rec.events == ()

    def test_mean_length_k17(self, commissioning):
        # length law alone, vectorised: uniform on 1..2^17
        rng = stream_rng(2)
        lengths = rng.integers(1, 2**17 + 1, size=1_000_000)
        se = (2**17 / math.sqrt(12.0)) / math.sqrt(lengths.size)
        assert abs(lengths.mean() - (1 + 2**17) / 2) < 3 * se

    def test_mean_length_full_records_k6(self, commissioning):
        rng = stream_rng(3)
        lengths = [
            simulate_block(commissioning["distribution"], 6, rng).length
            for _ in range(100_000)
        ]
        se = (2**6 / math.sqrt(12.0)) / math.sqrt(len(lengths))
        assert abs(np.mean(lengths) - (1 + 2**6) / 2) < 3 * se

    def test_event_frequencies_match_binomial(self, commissioning):
        """Detection counts at settings 00 obey the exact binomial law."""
        nu = commissioning["distribution"]
        rng = stream_rng(4)
        n_blocks = 60_000
        recs = [simulate_block(nu, 6, rng) for _ in range(n_blocks)]
        trials = sum(r.length - 1 for r in recs)
        by_outcome = np.zeros(4)
        for r in recs:
            for _, o in r.events:
                by_outcome[o] += 1
        p = nu.table[0]
        for o in (1, 2, 3):
            mean = trials * p[o]
            sd = math.sqrt(trials * p[o] * (1 - p[o]))
            assert abs(by_outcome[o] - mean) < 5 * sd

    def test_spot_settings_uniform(self, commissioning):
        rng = stream_rng(5)
        recs = [simulate_block(commissioning["distribution"], 3, rng) for _ in range(40_000)]
        counts = np.bincount([r.spot_settings for r in recs], minlength=4)
        sd = math.sqrt(len(recs) * 0.25 * 0.75)
        assert (np.abs(counts - len(recs) * 0.25) < 5 * sd).all()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(length=5, events=((5, 1),)), "event position outside 1..L-1"),
            (dict(length=5, events=((2, 0),)), "event outcome is not a detection"),
            (dict(length=5, events=((3, 1), (2, 1))), "positions not strictly increasing"),
            (dict(length=5, events=((2, 1), (2, 3))), "positions not strictly increasing"),
            (dict(length=0, events=()), "length below 1"),
            (dict(length=5, events=(), spot_settings=4), "spot settings or outcome"),
            (dict(length=5, events=(), spot_outcome=4), "spot settings or outcome"),
        ],
        ids=[
            "pos-at-L", "outcome-0", "decreasing", "duplicate", "L-0",
            "settings-4", "outcome-4",
        ],
    )
    def test_record_invariants_enforced(self, bad, message):
        ok = BlockRecord(length=3, events=((1, 2),), spot_settings=1, spot_outcome=0)
        rec = BlockRecord(**{"spot_settings": 0, "spot_outcome": 0, **bad})
        with pytest.raises(ValueError, match=f"^block 1: .*{message}"):
            Blocks.from_records([ok, rec, ok])


class TestDeterminism:
    def test_same_seed_same_dataset(self, commissioning):
        cfg = RunConfig(
            k=5, beta=1e-6, G_min=1e9, N_b=300, n_calib_min=1000, seed=99
        )
        c1, s1 = simulate_dataset(commissioning["distribution"], cfg, 64, 2, 5000, 500)
        c2, s2 = simulate_dataset(commissioning["distribution"], cfg, 64, 2, 5000, 500)
        assert s1 == s2
        assert c1 == c2

    def test_different_seed_differs(self, commissioning):
        cfg1 = RunConfig(k=5, beta=1e-6, G_min=1e9, N_b=100, n_calib_min=1, seed=1)
        cfg2 = RunConfig(k=5, beta=1e-6, G_min=1e9, N_b=100, n_calib_min=1, seed=2)
        c1, _ = simulate_dataset(commissioning["distribution"], cfg1, 64, 2, 1000, 100)
        c2, _ = simulate_dataset(commissioning["distribution"], cfg2, 64, 2, 1000, 100)
        assert c1 != c2

    def test_witness_runs_bit_identical(self, commissioning, small_table):
        w1 = simulate_run_witness(small_table, commissioning["distribution"], 5000, seed=7)
        w2 = simulate_run_witness(small_table, commissioning["distribution"], 5000, seed=7)
        assert (w1 == w2).all()
        w3 = simulate_run_witness(
            small_table, commissioning["distribution"], 5000, seed=7, stream=1
        )
        assert not (w1 == w3).all()


class TestStreams:
    def test_no_two_uses_share_a_key(self, commissioning, small_table, monkeypatch):
        nu = commissioning["distribution"]
        keys: dict[str, list[tuple[int, int]]] = {"dataset": [], "witness": []}
        draw = protocol.stream_rng

        def recording(seed, stream=0):
            keys[use].append((seed, stream))
            return draw(seed, stream)

        monkeypatch.setattr(protocol, "stream_rng", recording)
        use = "dataset"
        cfg = RunConfig(k=3, beta=1e-6, G_min=1.0, N_b=3 * protocol._CHUNK, n_calib_min=1, seed=8)
        simulate_dataset(nu, cfg, protocol._CHUNK, 1, 1000, 100)
        use = "witness"
        for stream in range(8):
            simulate_run_witness(small_table, nu, 10, seed=8, stream=stream)
        streams = sorted(s for _, s in keys["dataset"])
        calib = protocol._CALIB_STREAMS
        chunks = protocol._CHUNK_STREAMS
        assert streams == [calib + i for i in range(6)] + [chunks + c for c in range(3)]
        assert keys["witness"] == [(8, s) for s in range(8)]
        all_keys = keys["dataset"] + keys["witness"]
        assert len(set(all_keys)) == len(all_keys) == 17

    @pytest.mark.parametrize("stream", [-1, 1 << 48])
    def test_witness_stream_outside_its_range_rejected(self, commissioning, small_table, stream):
        with pytest.raises(ValueError, match="witness stream"):
            simulate_run_witness(small_table, commissioning["distribution"], 10, 1, stream)


class TestAccounting:
    def test_consumed_bits_production_numbers(self):
        assert consumed_bits(49_977_714, 17) == 949_576_566
        assert consumed_bits(56_070_910, 17) == 1_065_347_290
        assert consumed_bits(0, 17) == 0

    @given(n=st.integers(0, 10**9), k=st.integers(0, 30))
    @settings(max_examples=50, deadline=None)
    def test_consumed_bits_formula(self, n, k):
        assert consumed_bits(n, k) == n * (k + 2)

    def test_experiment_output_length_production(self):
        assert protocol.experiment_output_length(56_070_910, 17) == 14_698_652_631_040

    def test_expansion_ratios_production(self):
        early = AccumulatorState(
            G_run=1.62e9,
            N_run=49_977_714,
            bits_consumed=consumed_bits(49_977_714, 17),
            succeeded=True,
            stop_block=49_977_714,
        )
        rep = expansion_summary(early, GOLD_EXTRACTOR, 17)
        assert round(rep.ratio, 2) == 1.24
        assert rep.k_in == 953_301_640

        full = AccumulatorState(
            G_run=1.84e9,
            N_run=56_070_910,
            bits_consumed=consumed_bits(56_070_910, 17),
            succeeded=True,
            stop_block=56_070_910,
        )
        rep = expansion_summary(full, GOLD_EXTRACTOR, 17)
        assert rep.ratio == pytest.approx(1.105, abs=5e-4)

    def test_summary_requires_success(self):
        state = AccumulatorState(G_run=0.0, N_run=5, bits_consumed=5 * 19)
        with pytest.raises(ProtocolFailure):
            expansion_summary(state, GOLD_EXTRACTOR, 17)

    def test_break_even_ratio(self):
        ex = ExtractorParams(
            m_in=10**6, sigma_in=2 * 19 + 8, eps_ext=0.5, eps=1.0,
            k_out=2 * 19 + 8, d_s=8, w=5,
        )
        state = AccumulatorState(
            G_run=1.0, N_run=2, bits_consumed=38, succeeded=True, stop_block=2
        )
        assert expansion_summary(state, ex, 17).ratio == 1.0


def _cycles_from_records(nu, records, calib_trials=50_000, files=2, seed=5):
    rng = stream_rng(seed, 10**9)
    per = max(1, len(records) // files)
    chunks = [records[i : i + per] for i in range(0, len(records), per)]
    return [
        CycleData(
            calibration=simulate_calibration_counts(nu, calib_trials, rng),
            files=tuple(
                ExpansionFile(
                    blocks=Blocks.from_records(ch),
                    trailing_calibration=simulate_calibration_counts(nu, 2000, rng),
                )
                for ch in chunks
            ),
        )
    ]


@pytest.fixture(scope="module")
def sim(commissioning):
    nu = commissioning["distribution"]
    rng = stream_rng(21)
    records = [simulate_block(nu, 6, rng) for _ in range(400)]
    return nu, records


@pytest.fixture(scope="module")
def dense_sim():
    d = ConditionalDistribution(np.full((4, 4), 0.25))  # p_det = 0.75
    table = pef.build_pef_table(d, 0.01, 5, optimize_j_mid=True)
    rng = stream_rng(22)
    return d, table, [simulate_block(d, 5, rng) for _ in range(100)]


class TestAccumulate:
    def test_all_ones_pefs_never_succeed(self, sim):
        nu, records = sim
        cycles = _cycles_from_records(nu, records)
        beta = 1e-6
        anchors = tuple(
            pef.TrialPef.constant_one(beta, protocol_q)
            for protocol_q in (
                1.0 / 64,
                1.0 / (64 - 31),
                1.0,
            )
        )
        table = pef.PefTable(k=6, beta=beta, j_mid=32, anchors=anchors)
        cfg = RunConfig(k=6, beta=beta, G_min=1.0, N_b=400, n_calib_min=1, seed=0)
        state, trace = accumulate(cycles, cfg, lambda nu_h: table)
        assert not state.succeeded
        assert state.G_run == 0.0
        assert state.N_run == 400

    def test_invalid_pef_table_rejected(self, sim, small_table):
        nu, records = sim
        cycles = _cycles_from_records(nu, records)
        a = small_table.anchors[1]
        raised = pef.TrialPef.from_excess(a.excess + 1.0, a.beta, a.position_q)
        bad = dataclasses.replace(small_table, anchors=(small_table.anchors[0], raised, a))
        cfg = RunConfig(k=6, beta=small_table.beta, G_min=1e18, N_b=400, n_calib_min=1, seed=0)
        accumulate(cycles, cfg, lambda nu_h: small_table)
        with pytest.raises(ValueError, match="^cycle 0: PEF table anchor fails the PEF inequality$"):
            accumulate(cycles, cfg, lambda nu_h: bad)

    def test_sparse_dense_equivalence(self, sim, small_table, dense_sim):
        _, records = sim
        _, dense_table, dense_records = dense_sim
        for table, recs in ((small_table, records[:100]), (dense_table, dense_records)):
            tabs = protocol._witness_tables(table)
            log2f = table.log2_f(np.arange(1, table.n_positions + 1))
            for rec in recs:
                sparse = protocol.block_log2_pef(rec, table, tabs)
                dense = sum(
                    log2f[j - 1, 4 * s + o]
                    for j, (s, o) in enumerate(rec.dense_trials(), start=1)
                )
                assert sparse == pytest.approx(dense, abs=1e-12)

    def test_witness_additivity_across_splits(self, sim, small_table):
        nu, records = sim
        cfg = RunConfig(
            k=6, beta=small_table.beta, G_min=1e18, N_b=10**6, n_calib_min=1, seed=0
        )
        whole = _cycles_from_records(nu, records, seed=5)
        state_all, _ = accumulate(whole, cfg, lambda d: small_table)
        part_a = _cycles_from_records(nu, records[:250], seed=5)
        part_b = _cycles_from_records(nu, records[250:], seed=5)
        s1, _ = accumulate(part_a, cfg, lambda d: small_table)
        s2, _ = accumulate(part_b, cfg, lambda d: small_table)
        assert state_all.G_run == pytest.approx(s1.G_run + s2.G_run, rel=1e-12)
        assert state_all.N_run == s1.N_run + s2.N_run

    def test_ledger_matches_formula_every_step(self, sim, small_table):
        nu, records = sim
        cfg = RunConfig(
            k=6, beta=small_table.beta, G_min=1e18, N_b=10**6, n_calib_min=1, seed=0
        )
        cycles = _cycles_from_records(nu, records)
        _, trace = accumulate(cycles, cfg, lambda d: small_table)
        assert (trace[:, 2] == (6 + 2) * trace[:, 0]).all()

    def test_early_stop_never_overshoots(self, sim, small_table, commissioning):
        nu, records = sim
        rep = pef.block_gain(small_table, commissioning["distribution"])
        gmin = 400 * rep.g_block * 0.5
        cfg = RunConfig(
            k=6, beta=small_table.beta, G_min=gmin, N_b=10**6, n_calib_min=1, seed=0
        )
        cycles = _cycles_from_records(nu, records)
        state, trace = accumulate(cycles, cfg, lambda d: small_table)
        if state.succeeded:
            assert state.stop_block == trace.shape[0]
            assert trace[-1, 1] >= gmin
            assert (trace[:-1, 1] < gmin).all()

    def test_block_budget_respected(self, sim, small_table):
        nu, records = sim
        cfg = RunConfig(
            k=6, beta=small_table.beta, G_min=1e18, N_b=100, n_calib_min=1, seed=0
        )
        cycles = _cycles_from_records(nu, records)
        state, _ = accumulate(cycles, cfg, lambda d: small_table)
        assert state.N_run == 100
        assert not state.succeeded

    def test_calibration_borrowing(self, sim, small_table):
        nu, records = sim
        rng = stream_rng(77)
        # second cycle's own calibration is short; the previous cycle's
        # trailing files must top it up newest-first
        c0 = CycleData(
            calibration=simulate_calibration_counts(nu, 30_000, rng),
            files=tuple(
                ExpansionFile(
                    blocks=Blocks.from_records(records[i : i + 10]),
                    trailing_calibration=simulate_calibration_counts(nu, 4_000, rng),
                )
                for i in range(0, 30, 10)
            ),
        )
        c1 = CycleData(
            calibration=simulate_calibration_counts(nu, 2_000, rng),
            files=(
                ExpansionFile(
                    blocks=Blocks.from_records(records[30:40]),
                    trailing_calibration=simulate_calibration_counts(nu, 1_000, rng),
                ),
            ),
        )
        usable = protocol._usable_calibration([c0, c1], 1, n_calib_min=9_000)
        assert usable.total == 2_000 + 4_000 + 4_000  # stops once satisfied
        usable = protocol._usable_calibration([c0, c1], 1, n_calib_min=13_000)
        assert usable.total == 2_000 + 3 * 4_000

        with pytest.raises(CalibrationShortfallError, match="cycle 1"):
            protocol._usable_calibration([c0, c1], 1, n_calib_min=50_000)

    def test_file_granularity_checks_later(self, sim, small_table):
        nu, records = sim
        rep_gmin = 1e-9  # crossed almost immediately
        base = dict(
            k=6, beta=small_table.beta, G_min=rep_gmin, N_b=10**6, n_calib_min=1, seed=0
        )
        cycles = _cycles_from_records(nu, records)
        s_block, _ = accumulate(
            cycles, RunConfig(**base, check_granularity="block"), lambda d: small_table
        )
        s_file, _ = accumulate(
            cycles, RunConfig(**base, check_granularity="file"), lambda d: small_table
        )
        if s_block.succeeded and s_file.succeeded:
            assert s_file.stop_block >= s_block.stop_block

    def test_mismatched_table_rejected(self, sim, small_table):
        nu, records = sim
        cfg = RunConfig(k=6, beta=2e-6, G_min=1.0, N_b=10, n_calib_min=1, seed=0)
        cycles = _cycles_from_records(nu, records[:10])
        with pytest.raises(ValueError):
            accumulate(cycles, cfg, lambda d: small_table)


def _loop_log2_pef(rec: BlockRecord, tabs) -> float:
    """Per-event reference sum of one block's log2 PEFs."""
    prefix00, delta, log2f = tabs
    total = prefix00[rec.length - 1]
    for pos, out in rec.events:
        total += delta[pos - 1, out]
    total += log2f[rec.length - 1, 4 * rec.spot_settings + rec.spot_outcome]
    return float(total)


def _loop_accumulate(cycles, cfg, builder, stop_on_success):
    """Per-block reference for accumulate: one witness update at a time."""
    state = AccumulatorState()
    rows = []
    per_file = cfg.check_granularity == "file"
    for ci in range(len(cycles)):
        calib = protocol._usable_calibration(cycles, ci, cfg.n_calib_min)
        table = builder(fit_mle(calib))
        tabs = protocol._witness_tables(table)
        for f in cycles[ci].files:
            for rec in f.blocks:
                inc = protocol.block_log2_pef(rec, table, tabs)
                assert inc == _loop_log2_pef(rec, tabs)
                state.N_run += 1
                state.bits_consumed += cfg.k + 2
                state.G_run += inc / cfg.beta
                rows.append((state.N_run, state.G_run, state.bits_consumed))
                if not per_file and not state.succeeded and state.G_run >= cfg.G_min:
                    state.succeeded = True
                    state.stop_block = state.N_run
                    if stop_on_success:
                        return state, np.array(rows)
                if state.N_run >= cfg.N_b:
                    break
            if per_file and not state.succeeded and state.G_run >= cfg.G_min:
                state.succeeded = True
                state.stop_block = state.N_run
                if stop_on_success:
                    return state, np.array(rows)
            if state.N_run >= cfg.N_b:
                return state, np.array(rows)
    return state, np.array(rows)


@pytest.fixture(scope="module")
def oracle_datasets(sim, small_table):
    """(cycles, builder, a block budget that ends mid-file)."""
    nu, records = sim
    cfg = RunConfig(k=6, beta=1e-6, G_min=1e18, N_b=500, n_calib_min=1, seed=56)
    refit, _ = simulate_dataset(nu, cfg, 100, 2, 30_000, 3_000)
    return {
        "one-cycle": (_cycles_from_records(nu, records), lambda d: small_table, 250),
        "refit-cycles": (
            refit,
            lambda d: pef.build_pef_table(d, 1e-6, 6, j_mid=small_table.j_mid),
            350,
        ),
    }


class TestKernelOracle:
    """accumulate's per-file kernel equals the per-block loop bit for bit."""

    @pytest.mark.parametrize("dataset", ["one-cycle", "refit-cycles"])
    @pytest.mark.parametrize("granularity", ["block", "file"])
    @pytest.mark.parametrize("stop_on_success", [True, False])
    @pytest.mark.parametrize("case", ["threshold", "budget"])
    def test_accumulate_matches_block_loop(
        self, oracle_datasets, dataset, granularity, stop_on_success, case
    ):
        cycles, builder, budget = oracle_datasets[dataset]
        base = RunConfig(
            k=6, beta=1e-6, G_min=1e18, N_b=10**6, n_calib_min=1, seed=0,
            check_granularity=granularity,
        )
        if case == "threshold":
            # reached mid-file by block 150 and at the file end at block 200
            _, full = _loop_accumulate(cycles, base, builder, False)
            g_min = float(min(full[149, 1], full[199, 1]))
            cfg = dataclasses.replace(base, G_min=g_min)
        else:
            cfg = dataclasses.replace(base, N_b=budget)
        want_state, want_trace = _loop_accumulate(cycles, cfg, builder, stop_on_success)
        state, trace = accumulate(cycles, cfg, builder, stop_on_success=stop_on_success)
        assert state == want_state
        assert trace.shape == want_trace.shape
        assert np.array_equal(trace, want_trace)
        if case == "threshold":
            assert state.succeeded
        else:
            assert state.N_run == budget


class TestVectorizedWitness:
    def test_matches_per_block_accumulation_statistically(
        self, commissioning, small_table
    ):
        nu = commissioning["distribution"]
        fast = simulate_run_witness(small_table, nu, 200_000, seed=31)
        rep = pef.block_gain(small_table, nu)
        se = math.sqrt(rep.var_block / fast.size)
        assert abs(fast.mean() - rep.g_block) < 4 * se
        # and the slow reference path agrees with the analytic mean too
        rng = stream_rng(32)
        tabs = protocol._witness_tables(small_table)
        slow = np.array(
            [
                protocol.block_log2_pef(simulate_block(nu, 6, rng), small_table, tabs)
                for _ in range(20_000)
            ]
        ) / small_table.beta
        se_slow = math.sqrt(rep.var_block / slow.size)
        assert abs(slow.mean() - rep.g_block) < 4 * se_slow


def _record(length, s, o, ev):
    events = tuple(sorted({p: out for p, out in ev if p < length}.items()))
    return BlockRecord(length=length, events=events, spot_settings=s, spot_outcome=o)


_valid_records = st.lists(
    st.builds(
        _record,
        st.integers(1, 64),
        st.integers(0, 3),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(1, 63), st.integers(1, 3)), max_size=5),
    ),
    max_size=20,
)


def _decodes_or_rejects(data: bytes) -> None:
    """``read_blocks`` either re-encodes to ``data`` exactly or raises ValueError."""
    try:
        blocks = protocol.read_blocks(io.BytesIO(data))
    except ValueError:
        return
    buf = io.BytesIO()
    protocol.write_blocks(blocks, buf)
    assert buf.getvalue() == data


class TestWireFormats:
    @given(_valid_records)
    @settings(max_examples=40, deadline=None)
    def test_binary_roundtrip(self, records):
        buf = io.BytesIO()
        protocol.write_blocks(Blocks.from_records(records), buf)
        buf.seek(0)
        assert list(protocol.read_blocks(buf)) == records

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_read_blocks_fuzz_arbitrary_bytes(self, data):
        _decodes_or_rejects(data)

    @given(_valid_records, st.data())
    @settings(max_examples=300, deadline=None)
    def test_read_blocks_fuzz_damaged_streams(self, records, draw):
        buf = io.BytesIO()
        protocol.write_blocks(Blocks.from_records(records), buf)
        data = bytearray(buf.getvalue())
        if data and draw.draw(st.booleans(), label="mutate"):
            i = draw.draw(st.integers(0, len(data) - 1), label="at")
            data[i] = draw.draw(st.integers(0, 255), label="byte")
        else:
            del data[draw.draw(st.integers(0, len(data)), label="cut") :]
        _decodes_or_rejects(bytes(data))

    def test_truncated_stream_rejected(self):
        rec = BlockRecord(length=3, events=((1, 2),), spot_settings=1, spot_outcome=0)
        buf = io.BytesIO()
        protocol.write_blocks(Blocks.from_records([rec]), buf)
        data = buf.getvalue()
        # inside the head, inside the event (twice), inside the spot bytes
        for cut in (3, 8, 10, len(data) - 1):
            with pytest.raises(ValueError, match="truncated block stream"):
                protocol.read_blocks(io.BytesIO(data[:cut]))

    def test_block_over_u16_detections_rejected_before_writing(self):
        ok = BlockRecord(length=3, events=((1, 2),), spot_settings=1, spot_outcome=0)
        big = BlockRecord(
            length=65_538,
            events=tuple((p, 1 + p % 3) for p in range(1, 65_537)),
            spot_settings=0,
            spot_outcome=0,
        )
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="block 1 has 65536 detections"):
            protocol.write_blocks(Blocks.from_records([ok, big]), buf)
        assert list(protocol.read_blocks(io.BytesIO(buf.getvalue()))) == [ok]

    def test_dataset_roundtrip(self, commissioning, tmp_path):
        nu = commissioning["distribution"]
        cfg = RunConfig(k=4, beta=1e-6, G_min=1.0, N_b=50, n_calib_min=1, seed=12)
        cycles, _ = simulate_dataset(nu, cfg, 10, 2, 3000, 300)
        protocol.write_dataset(cycles, tmp_path / "ds", {"k": 4, "seed": 12})
        back, manifest = protocol.load_dataset(tmp_path / "ds")
        assert manifest["k"] == 4
        assert back == cycles

    def test_trace_csv(self, tmp_path):
        trace = np.array([[1, 0.5, 8], [2, 1.5, 16], [3, 2.5, 24], [4, 3.0, 32]])
        buf = io.StringIO()
        protocol.write_trace_csv(trace, buf, decimation=2)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "block_index,G_run,bits_consumed"
        assert lines[1].startswith("1,")
        assert lines[-1].startswith("4,")  # final row always present


class TestThreadIndependence:
    def test_dataset_identical_across_thread_counts(self, commissioning, tmp_path):
        nu = commissioning["distribution"]
        # 2.5 chunks: three shards at threads=3, two at threads=2, last one partial
        n_b = 2 * protocol._CHUNK + 2_100
        cfg = RunConfig(k=5, beta=1e-6, G_min=1e18, N_b=n_b, n_calib_min=1, seed=55)
        runs = {t: simulate_dataset(nu, cfg, 1000, 4, 20_000, 2_000, threads=t) for t in (1, 2, 3)}
        assert runs[1] == runs[2] == runs[3]
        # chunk c is one draw on the stream of (seed, chunk c)
        whole = protocol._join([f.blocks.columns for c in runs[1][0] for f in c.files])
        for c, m in ((1, protocol._CHUNK), (2, 2_100)):
            rng = stream_rng(55, protocol._CHUNK_STREAMS + c)
            drawn = Blocks(*protocol._sample_blocks(nu.table, 5, m, rng))
            assert whole[c * protocol._CHUNK : c * protocol._CHUNK + m] == drawn
        # the realisation itself is pinned: these are the bytes of its 11 files
        protocol.write_dataset(runs[1][0], tmp_path, {"k": 5})
        files = sorted(tmp_path.glob("cycle_*/expansion_*.blocks"))
        digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        assert len(files) == 11
        assert digest == (
            "8b13fdcb77268e6f8ee34695351aa82af6431e004217c71e7333d1ba934fc2dd"
        )

    def test_accumulate_identical_with_pipelining(self, commissioning, small_table):
        nu = commissioning["distribution"]
        cfg = RunConfig(k=6, beta=1e-6, G_min=1e18, N_b=500, n_calib_min=1, seed=56)
        cycles, _ = simulate_dataset(nu, cfg, 100, 2, 30_000, 3_000)
        builder = lambda d: pef.build_pef_table(d, 1e-6, 6, j_mid=small_table.j_mid)
        s1, t1 = accumulate(cycles, cfg, builder, threads=1)
        s2, t2 = accumulate(cycles, cfg, builder, threads=2)
        assert s1 == s2
        assert np.array_equal(t1, t2)


class TestDenseDetections:
    """High detection probability: many geometric gaps of length 1."""

    def test_positions_stay_distinct_when_dense(self):
        d = ConditionalDistribution(np.full((4, 4), 0.25))  # p_det = 0.75
        rng = stream_rng(123)
        for _ in range(500):
            rec = simulate_block(d, 5, rng)
            positions = [p for p, _ in rec.events]
            assert len(set(positions)) == len(positions)
            assert all(1 <= p < rec.length for p in positions)

    def test_vectorized_witness_handles_dense(self, dense_sim):
        d, table, _ = dense_sim
        w = simulate_run_witness(table, d, 20_000, seed=9)
        assert np.isfinite(w).all()

    @pytest.mark.parametrize("path", ["per-block", "chunk"])
    def test_detection_law_per_position(self, path):
        """At each position j the detection rate is p_det, over blocks with L > j."""
        d = ConditionalDistribution(np.full((4, 4), 0.25))
        n, n_blocks = 2**3, 20_000
        if path == "per-block":
            rng = stream_rng(321)
            recs = [simulate_block(d, 3, rng) for _ in range(n_blocks)]
            L = np.array([r.length for r in recs])
            pos = np.array([p for r in recs for p, _ in r.events], dtype=np.int64)
        else:
            L, _, pos, _, _ = protocol._sample_blocks(
                d.table, 3, n_blocks, stream_rng(322)
            )
        hits = np.bincount(pos, minlength=n)
        for j in range(1, n):
            at_risk = int((L > j).sum())
            sd = math.sqrt(at_risk * 0.75 * 0.25)
            assert abs(hits[j] - 0.75 * at_risk) < 5 * sd, j


def _chi2_tail(observed: np.ndarray, expected: np.ndarray) -> float:
    """Upper tail of Pearson's chi-square, cells expecting < 5 pooled into one."""
    small = expected < 5
    obs, exp = observed[~small], expected[~small]
    if small.any():
        obs = np.append(obs, observed[small].sum())
        exp = np.append(exp, expected[small].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(mpmath.gammainc((obs.size - 1) / 2, stat / 2, mpmath.inf, regularized=True))


#: a sparse source at the production k: one detection per 2^13 trials keeps
#: 2^18 blocks in about 50 MB, and rows 01..11 fill every spot cell
LAW_SOURCE = ConditionalDistribution(
    np.array(
        [
            [1 - 2.0**-13, 0.3 * 2.0**-13, 0.3 * 2.0**-13, 0.4 * 2.0**-13],
            [0.4, 0.3, 0.2, 0.1],
            [0.1, 0.2, 0.3, 0.4],
            [0.25, 0.05, 0.45, 0.25],
        ]
    )
)

LAW_P_MIN = 1e-6  # every chi-square tail must exceed this


class TestSamplerLawK17:
    """``simulate_dataset`` at k=17 against the exact law, by chi-square."""

    N_B = 1 << 18

    @pytest.fixture(scope="class")
    def blocks(self):
        cfg = RunConfig(k=17, beta=1e-6, G_min=1.0, N_b=self.N_B, n_calib_min=1, seed=2024)
        cycles, _ = simulate_dataset(LAW_SOURCE, cfg, self.N_B, 1, 1, 1)
        return cycles[0].files[0].blocks

    def test_lengths_uniform(self, blocks):
        observed = np.bincount((blocks.L - 1) >> 11, minlength=64)  # 64 bins of 2^11
        assert observed.size == 64
        assert _chi2_tail(observed, np.full(64, self.N_B / 64)) > LAW_P_MIN

    def test_spot_cells(self, blocks):
        observed = np.bincount(blocks.spot, minlength=16)
        expected = self.N_B * LAW_SOURCE.table.ravel() / 4
        assert _chi2_tail(observed, expected) > LAW_P_MIN

    def test_detection_counts_binomial(self, blocks):
        p = 1.0 - LAW_SOURCE.table[0, 0]
        counts = np.bincount(blocks.block_of_event, minlength=self.N_B)
        n = blocks.L - 1
        # sum over blocks of Binomial(L - 1, p) pmfs, by the ratio recursion
        pmf = np.exp(n * math.log1p(-p))
        expected = []
        for c in range(int(counts.max()) + 1):
            expected.append(pmf.sum())
            pmf = pmf * np.maximum(n - c, 0) / (c + 1) * (p / (1 - p))
        expected[-1] += self.N_B - sum(expected)  # the tail beyond the largest count
        observed = np.bincount(counts)
        assert _chi2_tail(observed, np.array(expected)) > LAW_P_MIN
