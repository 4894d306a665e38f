"""End-to-end command-line tests (in-process via cli.main).

Every JSON a command prints or writes is parsed strictly: ``NaN`` and
``Infinity`` are not JSON, so :func:`strict_json` refuses them.  The
import-set tests run commands in fresh interpreters instead.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import direx
from direx import cli, pef, planner, protocol
from direx.data import commissioning_counts, commissioning_distribution
from direx.extractor import ExtractorParams
from direx.model import ConditionalDistribution


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "counts.json").write_text(commissioning_counts().to_json())
    (d / "dist.json").write_text(commissioning_distribution().to_json())
    return d


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def refused(capsys, *argv) -> str:
    """The stderr of ``direx *argv``, checked to be exit 2, no stdout and
    exactly one ``error:`` line."""
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


#: a k=4 PEF table whose three anchors are the constant 1, written out by hand
ONES_TABLE = json.dumps({"k": 4, "beta": 1e-6, "j_mid": 9, "anchors": [[1.0] * 16] * 3})


def strict_json(text: str):
    """``text`` parsed as JSON proper, raising on ``NaN`` or ``Infinity``."""

    def refuse(name):
        raise ValueError(f"non-JSON constant {name} in command output")

    return json.loads(text, parse_constant=refuse)


class TestFit:
    def test_fit_matches_bundled_distribution(self, workdir, capsys):
        code, out = run(capsys, "fit", workdir / "counts.json")
        assert code == 0
        obj = strict_json(out)
        got = np.array(obj["p"])
        want = commissioning_distribution().table
        assert np.abs(got - want).max() < 1e-6
        assert "manifest_hash" in obj
        assert 0.0 <= obj["mle_rel_gap"] <= 1e-10

    def test_fit_csv_input(self, workdir, capsys):
        (workdir / "counts.csv").write_text(commissioning_counts().to_csv())
        code, out = run(capsys, "fit", workdir / "counts.csv")
        assert code == 0

    def test_fit_output_is_a_distribution_input(self, workdir, capsys):
        code, _ = run(capsys, "fit", workdir / "counts.json", "--output", workdir / "fitted.json")
        assert code == 0
        code, out = run(capsys, "strength", workdir / "fitted.json")
        assert code == 0
        assert strict_json(out)["statistical_strength_bits"] == pytest.approx(3.0329e-6, rel=5e-3)

    def test_missing_file_is_input_error(self, workdir, capsys):
        code, _ = run(capsys, "fit", workdir / "nope.json")
        assert code == cli.EXIT_INPUT_ERROR

    def test_malformed_json_is_input_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "fit", bad)
        assert code == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "name,text",
        [
            ("empty.csv", ""),
            ("list.json", "[1, 2, 3]"),
            ("label.csv", "x,y,a,b,count\n2,0,0,0,5\n"),
            ("repeat.csv", "x,y,a,b,count\n0,0,0,0,5\n0,0,0,0,6\n"),
        ],
    )
    def test_malformed_counts_exit_2_with_one_line(self, workdir, capsys, name, text):
        path = workdir / name
        path.write_text(text)
        code = cli.main(["fit", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1


class TestStrength:
    def test_value(self, workdir, capsys):
        code, out = run(capsys, "strength", workdir / "dist.json")
        assert code == 0
        obj = strict_json(out)
        assert obj["statistical_strength_bits"] == pytest.approx(3.0329e-6, rel=5e-3)
        assert 0.0 <= obj["strength_rel_gap"] <= 1e-3

    @pytest.mark.parametrize(
        "name,text",
        [
            ("nan.csv", "x,y,a,b,p\n0,0,0,0,nan\n"),
            ("empty.csv", ""),
            ("list.json", "[0.25]"),
            ("label.csv", "x,y,a,b,p\n0,0,0,2,1\n"),
            ("repeat.csv", "x,y,a,b,p\n0,0,0,0,1\n0,0,0,0,1\n"),
        ],
    )
    def test_malformed_distribution_exit_2_with_one_line(self, workdir, capsys, name, text):
        path = workdir / name
        path.write_text(text)
        code = cli.main(["strength", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPefRoundTrip:
    def test_pef_opt_then_rate(self, workdir, capsys):
        code, out = run(
            capsys,
            "pef-opt", workdir / "dist.json",
            "--beta", "1e-6", "--k", "6", "--optimize-j-mid",
            "--output", workdir / "pef.json",
        )
        assert code == 0
        code, out = run(capsys, "rate", workdir / "pef.json", workdir / "dist.json")
        assert code == 0
        obj = strict_json(out)
        table = pef.build_pef_table(
            commissioning_distribution(), 1e-6, 6, optimize_j_mid=True
        )
        rep = pef.block_gain(table, commissioning_distribution())
        assert obj["g_block_bits"] == pytest.approx(rep.g_block, rel=1e-9)

    @pytest.mark.parametrize(
        "name,change",
        [
            ("anchors-not-a-list", {"anchors_excess": 3}),
            ("one-anchor", {"anchors_excess": [[0.0] * 16]}),
            ("array", None),
            ("anchor-q-moved", {"anchor_q": [1, 0.5, 0.2]}),
            ("not-a-pef", {"anchors_excess": [[1e9] + [0.0] * 15, [0.0] * 16, [0.0] * 16]}),
            ("last-anchor-raised", "raise"),
            # valid constant-one anchors, but 2^40 positions: block_gain could not allocate them
            ("k-above-bound", {
                "k": 40,
                "anchors_excess": [[0.0] * 16] * 3,
                "anchor_q": [1.0 / (2**40 - j + 1) for j in (1, 5, 2**40)],
            }),
            # block_gain divides by beta**2, which underflows or overflows here
            ("beta-1e-300", {"beta": 1e-300}),
            ("beta-1e300", {"beta": 1e300}),
        ],
    )
    def test_malformed_or_invalid_table_exit_2_with_one_line(self, workdir, capsys, name, change):
        table = pef.build_pef_table(commissioning_distribution(), 1e-6, 4, j_mid=5)
        if change == "raise":
            a = table.anchors[2]
            raised = pef.TrialPef.from_excess(a.excess + 1.0, a.beta, a.position_q)
            text = pef.PefTable(table.k, table.beta, table.j_mid, (*table.anchors[:2], raised)).to_json()
        elif change is None:
            text = json.dumps([json.loads(table.to_json())])
        else:
            text = json.dumps({**json.loads(table.to_json()), **change})
        path = workdir / f"{name}.json"
        path.write_text(text)
        code = cli.main(["rate", str(path), str(workdir / "dist.json")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if change == "raise":
            assert "anchor 2 fails the PEF inequality" in captured.err
        if name.startswith("beta-"):
            assert captured.err == f"error: beta must be in [1e-150, 1e+150], got {change['beta']}\n"

    @pytest.mark.parametrize("beta", ["0", "nan", "inf", "-1e-6", "1e300", "1e-300"])
    def test_pef_opt_bad_beta_exit_2_with_one_line(self, workdir, capsys, beta):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["pef-opt", str(workdir / "dist.json"), "--beta", beta, "--k", "4"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == "" and not caught
        assert captured.err == f"error: beta must be in [1e-150, 1e+150], got {float(beta)}\n"

    def test_pef_opt_stall_exit_2_with_one_line(self, workdir):
        # a fresh interpreter, where numpy's warnings would reach stderr
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN, "pef-opt", str(workdir / "dist.json"),
             "--beta", "1000", "--k", "4"],
            env=fresh_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: PEF optimisation stalled")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_format_option_is_gone(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pef-opt", str(workdir / "dist.json"), "--beta", "1e-6", "--k", "4",
                      "--format", "csv"])
        assert exc.value.code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().out == ""


class TestExtractParams:
    def test_production_budget(self, workdir, capsys):
        code, out = run(
            capsys,
            "extract-params",
            "--m-in", "14698652631040",
            "--sigma-in", "1181264480",
            "--eps-ext", "1.78e-9",
            "--eps", "5.7e-7",
            "--beta", "4.7614e-8",
        )
        assert code == 0
        obj = strict_json(out)
        assert obj["k_out"] == 1_181_264_237
        assert obj["d_s"] == 3_725_074
        assert obj["in_set_X"] is True

    @pytest.mark.parametrize("beta", ["nan", "inf", "0"])
    def test_beta_not_finite_and_positive_exit_2_with_one_line(self, capsys, beta):
        code = cli.main(
            ["extract-params", "--m-in", "1000", "--sigma-in", "500", "--eps-ext", "1e-3",
             "--beta", beta]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: beta must be finite and > 0, got {float(beta)}\n"

    @pytest.mark.parametrize("sigma_in", ["inf", "1e300", "2000", "nan", "0.5"])
    def test_sigma_in_outside_one_to_m_in_exit_2_with_one_line(self, capsys, sigma_in):
        code = cli.main(
            ["extract-params", "--m-in", "1000", "--sigma-in", sigma_in, "--eps-ext", "1e-3"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _k6_dataset(workdir, capsys, name):
    """A 200-block k=6 dataset under ``workdir``, simulated on first use."""
    ds = workdir / name
    if not ds.exists():
        code, _ = run(
            capsys, "simulate", workdir / "dist.json", "--k", "6",
            "--blocks", "200", "--seed", "5", "--out", ds,
        )
        assert code == 0
    return ds


class TestSimulateAccumulate:
    def test_roundtrip_matches_in_process(self, workdir, capsys, vertices):
        dist = commissioning_distribution()
        ds = workdir / "ds"
        code, out = run(
            capsys,
            "simulate", workdir / "dist.json",
            "--k", "6", "--blocks", "600", "--seed", "11", "--out", ds,
            "--blocks-per-file", "100", "--files-per-cycle", "3",
            "--calib-trials", "60000", "--trailing-calib-trials", "5000",
        )
        assert code == 0

        beta = 1e-6
        table = pef.build_pef_table(dist, beta, 6, optimize_j_mid=True)
        rep = pef.block_gain(table, dist)
        gmin = planner.threshold_from_sigma(600, rep.g_block, rep.var_block, 2.5)

        code, out = run(
            capsys,
            "accumulate", ds,
            "--beta", str(beta), "--gmin", str(gmin),
            "--j-mid", str(table.j_mid), "--n-calib-min", "60000",
            "--trace", workdir / "trace.csv",
        )
        obj = strict_json(out)

        # in-process oracle: same dataset, same builder, same config
        cycles, _ = protocol.load_dataset(ds)
        cfg = protocol.RunConfig(
            k=6, beta=beta, G_min=gmin, N_b=600, n_calib_min=60000, seed=0
        )
        state, trace = protocol.accumulate(
            cycles, cfg, lambda d: pef.build_pef_table(d, beta, 6, j_mid=table.j_mid)
        )
        assert obj["succeeded"] == state.succeeded
        assert obj["G_run"] == state.G_run  # bit-for-bit
        assert obj["N_run"] == state.N_run
        assert code == (0 if state.succeeded else 1)

        lines = (workdir / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == trace.shape[0] + 1
        g_last = float(lines[-1].split(",")[1])
        assert g_last == state.G_run

    def test_accumulate_empty_dir_exit_2(self, workdir, capsys):
        empty = workdir / "empty"
        empty.mkdir(exist_ok=True)
        code, _ = run(capsys, "accumulate", empty)
        assert code == cli.EXIT_INPUT_ERROR

    def test_accumulate_k_below_data_exit_2(self, workdir, capsys):
        ds = workdir / "k6"
        code, _ = run(
            capsys, "simulate", workdir / "dist.json", "--k", "6",
            "--blocks", "200", "--seed", "5", "--out", ds, "--threads", "1",
        )
        assert code == 0
        code = cli.main(
            ["accumulate", str(ds), "--k", "4", "--beta", "1e-6", "--gmin", "1",
             "--threads", "1"]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "cycle 0, file 0" in err

    @pytest.mark.parametrize(
        "manifest", ["[]", '"x"', '{"k": null}', '{"k": 1e400}', '{"k": 6.7}', '{"k": true}']
    )
    def test_accumulate_manifest_without_integer_k_exit_2(self, workdir, capsys, manifest):
        ds = _k6_dataset(workdir, capsys, "k6-manifest")
        (ds / "manifest.json").write_text(manifest)
        code = cli.main(["accumulate", str(ds), "--beta", "1e-6", "--gmin", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "manifest.json" in captured.err

    @pytest.mark.parametrize(
        "option, value",
        [("--gmin", "nan"), ("--gmin", "inf"), ("--beta", "nan"), ("--beta", "inf")],
    )
    def test_accumulate_non_finite_beta_or_gmin_exit_2(self, workdir, capsys, option, value):
        ds = _k6_dataset(workdir, capsys, "k6-finite")
        given = {"--beta": "1e-6", "--gmin": "1", option: value}
        code = cli.main(["accumulate", str(ds), *(a for pair in given.items() for a in pair)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: beta and G_min must be finite, got ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("beta", ["1e300", "1e-300"])
    def test_accumulate_extreme_beta_exit_2_with_one_line(self, workdir, capsys, beta):
        ds = _k6_dataset(workdir, capsys, "k6-extreme")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["accumulate", str(ds), "--beta", beta, "--gmin", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == "" and not caught
        assert captured.err == f"error: beta must be in [1e-150, 1e+150], got {float(beta)}\n"

    def test_accumulate_zero_blocks_exit_2_with_one_line(self, workdir, capsys):
        ds = _k6_dataset(workdir, capsys, "k6-refused")
        err = refused(capsys, "accumulate", ds, "--beta", "1e-6", "--gmin", "1", "--blocks", "0")
        assert "N_b must be positive" in err

    @pytest.mark.parametrize("decimation", ["0", "-4"])
    def test_accumulate_trace_decimation_below_one_exit_2(self, workdir, capsys, decimation):
        ds = _k6_dataset(workdir, capsys, "k6-refused")
        trace = workdir / f"trace-decimation{decimation}.csv"
        err = refused(
            capsys, "accumulate", ds, "--beta", "1e-6", "--gmin", "1",
            "--trace", trace, "--trace-decimation", decimation,
        )
        assert err == f"error: --trace-decimation must be at least 1, got {decimation}\n"
        assert not trace.exists()

    @pytest.mark.parametrize("damage", ["event-outcome-0", "spot-settings-7", "truncated"])
    def test_malformed_blocks_file_exit_2(self, workdir, capsys, damage):
        dense = workdir / "dense.json"  # p_det = 0.75: most k=4 blocks hold events
        dense.write_text(ConditionalDistribution(np.full((4, 4), 0.25)).to_json())
        ds = workdir / f"damaged-{damage}"
        code, _ = run(
            capsys, "simulate", dense, "--k", "4", "--blocks", "40", "--seed", "3",
            "--out", ds, "--threads", "1",
        )
        assert code == 0
        path = ds / "cycle_0000" / "expansion_0000.blocks"
        data = bytearray(path.read_bytes())
        boe = protocol.read_blocks(io.BytesIO(bytes(data))).block_of_event
        if damage == "event-outcome-0":
            data[8 * boe[0] + 10] = 0  # the first event's outcome byte
        elif damage == "spot-settings-7":
            data[6 + 5 * int((boe == 0).sum())] = 7  # block 0's spot settings
        else:
            del data[-1]
        path.write_bytes(bytes(data))
        code = cli.main(
            ["accumulate", str(ds), "--beta", "1e-6", "--gmin", "1", "--threads", "1"]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "cycle 0, file 0: " in err

    def test_simulate_k_above_bound_exit_2_with_one_line(self, workdir, capsys):
        # no detections: two k=33 blocks cost nothing to draw, but their
        # lengths do not fit the u32 of a .blocks header
        dark = workdir / "dark.json"
        dark.write_text(json.dumps({"p": [[1, 0, 0, 0]] * 4}))
        code = cli.main(
            ["simulate", str(dark), "--k", "33", "--blocks", "2",
             "--out", str(workdir / "k33"), "--threads", "1"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "0..31" in captured.err

    def test_simulate_empty_files_exit_2(self, workdir, capsys):
        code = cli.main(
            ["simulate", str(workdir / "dist.json"), "--k", "4", "--blocks", "10",
             "--blocks-per-file", "0", "--out", str(workdir / "empty-files")]
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "at least 1" in capsys.readouterr().err

    def test_simulate_identical_bytes_across_threads(self, workdir, capsys):
        # three chunks; --threads is accepted and has no effect
        files, hashes = {}, {}
        for threads in (1, 2):
            ds = workdir / f"threads-{threads}"
            code, out = run(
                capsys, "simulate", workdir / "dist.json", "--k", "3", "--blocks",
                3 * protocol._CHUNK - 100, "--seed", "9", "--blocks-per-file", "2000",
                "--out", ds, "--threads", threads,
            )
            assert code == 0
            hashes[threads] = strict_json(out)["manifest_hash"]
            files[threads] = {
                p.relative_to(ds): p.read_bytes()
                for p in sorted(ds.rglob("*"))
                if p.is_file()
            }
        assert sum(p.suffix == ".blocks" for p in files[1]) == 7
        assert Path("manifest.json") in files[1]
        assert files[1] == files[2]
        assert hashes[1] == hashes[2]

    def test_accumulate_identical_output_across_threads(self, workdir, capsys):
        # three cycles; --threads is accepted and has no effect
        ds = workdir / "acc-threads"
        code, _ = run(
            capsys, "simulate", workdir / "dist.json", "--k", "4", "--blocks", "300",
            "--seed", "5", "--blocks-per-file", "50", "--files-per-cycle", "2",
            "--out", ds, "--threads", "1",
        )
        assert code == 0
        outs = {}
        for threads in (1, 2):
            code, outs[threads] = run(
                capsys, "accumulate", ds, "--beta", "1e-6", "--gmin", "1e9",
                "--threads", threads,
            )
            assert code == cli.EXIT_PROTOCOL_FAILURE
        assert strict_json(outs[1])["N_run"] == 300
        assert outs[1] == outs[2]

    def test_invalid_pef_table_exit_2(self, workdir, capsys, monkeypatch):
        ds = workdir / "invalid-pef"
        code, _ = run(
            capsys, "simulate", workdir / "dist.json", "--k", "4",
            "--blocks", "40", "--seed", "3", "--out", ds, "--threads", "1",
        )
        assert code == 0
        build = pef.build_pef_table

        def cheating(*args, **kwargs):
            table = build(*args, **kwargs)
            a = table.anchors[2]
            raised = pef.TrialPef.from_excess(a.excess + 1.0, a.beta, a.position_q)
            return pef.PefTable(table.k, table.beta, table.j_mid, (*table.anchors[:2], raised))

        monkeypatch.setattr(pef, "build_pef_table", cheating)
        code = cli.main(
            ["accumulate", str(ds), "--beta", "1e-6", "--gmin", "1", "--threads", "1"]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "cycle 0: PEF table anchor fails the PEF inequality" in err

    def test_block_over_65535_detections_exit_2(self, workdir, capsys, monkeypatch):
        big = protocol.BlockRecord(
            length=65_538,
            events=tuple((p, 1) for p in range(1, 65_537)),
            spot_settings=0,
            spot_outcome=0,
        )
        calib = commissioning_counts()
        cycles = [
            protocol.CycleData(
                calibration=calib,
                files=(
                    protocol.ExpansionFile(
                        blocks=protocol.Blocks.from_records([big]),
                        trailing_calibration=calib,
                    ),
                ),
            )
        ]
        monkeypatch.setattr(
            protocol, "simulate_dataset", lambda *a, **kw: (cycles, {"n_blocks": 1})
        )
        code = cli.main(
            ["simulate", str(workdir / "dist.json"), "--k", "17", "--blocks", "1",
             "--out", str(workdir / "big")]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "cycle 0, file 0: block 0 has 65536 detections" in err

    def test_accumulate_hash_covers_block_bytes(self, workdir, capsys):
        ds = workdir / "hashed"
        code, _ = run(
            capsys, "simulate", workdir / "dist.json", "--k", "4",
            "--blocks", "40", "--seed", "3", "--out", ds, "--threads", "1",
        )
        assert code == 0
        argv = ("accumulate", ds, "--beta", "1e-6", "--gmin", "1e9", "--threads", "1")

        def manifest_hash() -> str:
            code, out = run(capsys, *argv)
            assert code in (0, 1)
            return strict_json(out)["manifest_hash"]

        before = manifest_hash()
        assert manifest_hash() == before
        blocks = sorted(ds.glob("cycle_*/expansion_*.blocks"))[-1]
        data = bytearray(blocks.read_bytes())
        data[-1] ^= 1  # the last block's spot outcome, still a valid pair index
        blocks.write_bytes(bytes(data))
        assert manifest_hash() != before

    def test_simulate_deterministic_rerun(self, workdir, capsys):
        out1 = workdir / "da"
        out2 = workdir / "db"
        a = run(capsys, "simulate", workdir / "dist.json", "--k", "4",
                "--blocks", "50", "--seed", "3", "--out", out1)
        b = run(capsys, "simulate", workdir / "dist.json", "--k", "4",
                "--blocks", "50", "--seed", "3", "--out", out2)
        assert a[0] == b[0] == 0
        for f1 in sorted(out1.rglob("*")):
            f2 = out2 / f1.relative_to(out1)
            if f1.is_file():
                assert f1.read_bytes() == f2.read_bytes()


class TestReport:
    def test_expansion_report(self, workdir, capsys):
        state = protocol.AccumulatorState(
            G_run=1.7e9,
            N_run=49_977_714,
            bits_consumed=49_977_714 * 19,
            succeeded=True,
            stop_block=49_977_714,
        )
        (workdir / "state.json").write_text(json.dumps(state.to_dict()))
        code, out = run(
            capsys,
            "extract-params",
            "--m-in", "14698652631040", "--sigma-in", "1181264480",
            "--eps-ext", "1.78e-9", "--eps", "5.7e-7",
            "--output", workdir / "ext.json",
        )
        assert code == 0
        code, out = run(
            capsys, "report", workdir / "state.json", workdir / "ext.json", "--k", "17"
        )
        assert code == 0
        obj = strict_json(out)
        assert round(obj["ratio"], 2) == 1.24

    def test_failed_state_exit_1(self, workdir, capsys):
        state = protocol.AccumulatorState(G_run=0.0, N_run=10, bits_consumed=190)
        (workdir / "failed.json").write_text(json.dumps(state.to_dict()))
        code, _ = run(
            capsys, "report", workdir / "failed.json", workdir / "ext.json", "--k", "17"
        )
        assert code == cli.EXIT_PROTOCOL_FAILURE

    @pytest.mark.parametrize(
        "which,text",
        [
            ("state", "[1]"),
            ("state", '{"G_run": "a", "N_run": 10, "bits_consumed": 190, "succeeded": true}'),
            ("state", '{"G_run": 1.0, "N_run": 10, "bits_consumed": 190}'),
            ("extractor", "[]"),
            ("extractor", '{"m_in": 1, "sigma_in": 1, "eps_ext": 0.1, "eps": 1, "k_out": "1", "d_s": 1, "w": 1}'),
        ],
    )
    def test_malformed_input_exit_2_with_one_line(self, workdir, capsys, which, text):
        state = protocol.AccumulatorState(
            G_run=1.0, N_run=10, bits_consumed=190, succeeded=True, stop_block=10
        )
        files = {"state": workdir / "ok-state.json", "extractor": workdir / "ok-ext.json"}
        files["state"].write_text(json.dumps(state.to_dict()))
        files["extractor"].write_text(
            ExtractorParams(m_in=10**6, sigma_in=46.0, eps_ext=0.5, eps=1.0, k_out=46, d_s=8, w=5).to_json()
        )
        files[which] = workdir / f"bad-{which}.json"
        files[which].write_text(text)
        code = cli.main(["report", str(files["state"]), str(files["extractor"]), "--k", "17"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestPlan:
    def test_plan_feasible_toy(self, workdir, capsys, vertices):
        idx = int(np.flatnonzero(~vertices.deterministic_mask)[0])
        from direx.model import ConditionalDistribution

        d = ConditionalDistribution(vertices.vertices[idx].reshape(4, 4))
        (workdir / "toy.json").write_text(d.to_json())
        code, out = run(
            capsys, "plan", workdir / "toy.json",
            "--eps", "1e-3", "--k", "4", "--blocks", "10000000",
        )
        assert code == 0
        obj = strict_json(out)
        assert obj["feasible"] is True
        assert obj["sigma_net"] > 0

    def test_plan_k_range_prints_only_json(self, workdir, capsys, monkeypatch):
        calls = []

        def fake(nu_h, eps, k_range, curves=None):
            calls.append((eps, k_range))
            return planner.PlanResult(
                feasible=True, k=4, eps=eps, beta_opt=1e-3, N_b_min=1000,
                N_t_min=8500.0, k_opt=4,
            )

        monkeypatch.setattr(planner, "optimal_block_length", fake)
        code, out = run(
            capsys, "plan", workdir / "dist.json", "--eps", "1e-3", "--k-range", "3:4"
        )
        assert code == 0
        obj = strict_json(out)
        assert obj["k_opt"] == 4
        assert calls == [(1e-3, range(3, 5))]

    def test_plan_keeps_its_audit_trail_as_strict_json(self, workdir, capsys, monkeypatch):
        evaluations = [(float(b), -math.inf) for b in np.geomspace(1e-10, 1e-8, 20)]
        evaluations += [(float(b), 1e3 * i) for i, b in enumerate(np.geomspace(1e-8, 1e-5, 20))]

        def fake(nu_h, N_b, k, eps, curve=None):
            plan = planner.PlanResult(
                feasible=True, k=k, eps=eps, beta_opt=1e-6, sigma_net=19e3,
                evaluations=list(evaluations),
            )
            return True, plan

        monkeypatch.setattr(planner, "expansion_feasible", fake)
        code, out = run(
            capsys, "plan", workdir / "dist.json", "--eps", "1e-3", "--k", "4",
            "--blocks", "1000",
        )
        assert code == 0

        obj = strict_json(out)
        assert len(obj["evaluations"]) >= planner.BETA_GRID_POINTS
        assert obj["evaluations"][0] == [1e-10, None]
        assert [tuple(e) for e in obj["evaluations"][20:]] == evaluations[20:]

    def test_plan_budget_matches_blocks(self, workdir, capsys, vertices):
        idx = int(np.flatnonzero(~vertices.deterministic_mask)[0])
        (workdir / "toy.json").write_text(
            ConditionalDistribution(vertices.vertices[idx].reshape(4, 4)).to_json()
        )
        budget = 85_000_004  # 10,000,000.47 blocks of (1 + 2^4)/2 trials on average
        plans = []
        for extra in (["--budget", budget], ["--blocks", 10_000_000]):
            code, out = run(capsys, "plan", workdir / "toy.json", "--eps", "1e-3", "--k", "4", *extra)
            assert code == 0
            obj = strict_json(out)
            del obj["manifest_hash"]
            plans.append(obj)
        assert plans[0] == plans[1]
        assert plans[0]["N_b"] == 10_000_000

    def test_plan_requires_budget_or_blocks(self, workdir, capsys):
        code, _ = run(capsys, "plan", workdir / "dist.json", "--eps", "1e-3")
        assert code == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "extra, n_b", [(["--blocks", "-5"], -5), (["--budget", "1"], 0), (["--blocks", "0"], 0)]
    )
    def test_plan_without_a_block_exit_2_with_one_line(self, workdir, capsys, extra, n_b):
        code = cli.main(["plan", str(workdir / "dist.json"), "--eps", "1e-3", "--k", "4", *extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: N_b must be at least 1 block, got {n_b}\n"

    @pytest.mark.parametrize("budget", ["inf", "nan", "0", "-3"])
    def test_plan_budget_not_finite_positive_exit_2_with_one_line(self, workdir, capsys, budget):
        code = cli.main(["plan", str(workdir / "dist.json"), "--eps", "1e-3", "--budget", budget])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err == (
            f"error: --budget must be a finite number of trials > 0, got {float(budget)}\n"
        )

    @pytest.mark.parametrize("k_range", ["5", "a:b", "4:5:6", "4:", "4.5:6"])
    def test_plan_k_range_not_lo_hi_exit_2_with_one_line(self, workdir, capsys, k_range):
        code = cli.main(["plan", str(workdir / "dist.json"), "--eps", "1e-3", "--k-range", k_range])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err == (
            f"error: --k-range must be LO:HI with integer bounds, got {k_range!r}\n"
        )


class TestNumberArguments:
    @pytest.mark.parametrize("text, value", [("-1e9", -1e9), ("-1.5E+3", -1500.0)])
    def test_gmin_takes_negative_exponent_numbers(self, monkeypatch, text, value):
        seen = []
        monkeypatch.setattr(cli, "cmd_accumulate", lambda args, stamp: seen.append(args.gmin) or (None, 0))
        assert cli.main(["accumulate", "data", "--beta", "1e-3", "--gmin", text]) == cli.EXIT_OK
        assert seen == [value]

    def test_gmin_without_value_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["accumulate", "data", "--gmin", "--beta", "1"])
        assert exc.value.code == cli.EXIT_INPUT_ERROR
        assert "argument --gmin: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract-params", "--m-in", "1000", "--sigma-in", "500", "--eps-ext", "1e-3",
             "--beta", "-inf"],
            ["rate", "only-one-file"],
            ["no-such-command"],
        ],
    )
    def test_parse_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestIdempotency:
    def test_same_manifest_hash_on_rerun(self, workdir, capsys):
        _, out1 = run(capsys, "strength", workdir / "dist.json")
        _, out2 = run(capsys, "strength", workdir / "dist.json")
        assert out1 == out2


class TestRunManifest:
    def test_seed_recorded_in_seeded_outputs(self, workdir, capsys):
        code, out = run(
            capsys, "simulate", workdir / "dist.json",
            "--k", "4", "--blocks", "20", "--seed", "9", "--out", workdir / "dm",
        )
        assert code == 0
        assert strict_json(out)["seed"] == 9

    def test_referenced_files_checked_before_execution(self, workdir, capsys):
        code, _ = run(
            capsys, "rate", workdir / "missing_pef.json", workdir / "dist.json"
        )
        assert code == cli.EXIT_INPUT_ERROR

    def test_manifest_excludes_output_destination(self, workdir, capsys):
        _, out1 = run(capsys, "strength", workdir / "dist.json")
        code, _ = run(
            capsys, "strength", workdir / "dist.json",
            "--output", workdir / "s.json",
        )
        assert code == 0
        h1 = strict_json(out1)["manifest_hash"]
        h2 = strict_json((workdir / "s.json").read_text())["manifest_hash"]
        assert h1 == h2


class TestStageRefusals:
    """The fit, the trial-PEF solve, each cycle's calibration and the
    planner's block-length search refuse their input with a ``ValueError``,
    which ``main`` reports as exit 2 with one line."""

    def test_refusal_classes_are_value_errors(self):
        from direx import extractor, ledger, model

        for cls in (
            model.MleConvergenceError,
            pef.PefOptimizationError,
            protocol.CalibrationShortfallError,
            planner.InfeasiblePlan,
            extractor.InfeasibleParameters,
            pef.InvalidRegimeError,
        ):
            assert issubclass(cls, ValueError), cls
        # a missed threshold is exit 1, not bad input
        assert not issubclass(ledger.ProtocolFailure, ValueError)

    def test_mle_convergence_exit_2(self, workdir, capsys, monkeypatch):
        from direx import model

        # a PR box: every setting pair wins CHSH, outside the quantum set
        c = np.zeros((4, 4), dtype=np.int64)
        for x, y in model.PAIR_ORDER:
            for a, b in model.PAIR_ORDER:
                if a ^ b == x & y:
                    c[model.pair_index(x, y), model.pair_index(a, b)] = 50
        (workdir / "pr-box.json").write_text(model.CountsTable(c).to_json())
        monkeypatch.setattr(model, "MAX_NEWTON_STEPS", 0)
        err = refused(capsys, "fit", workdir / "pr-box.json")
        assert err.startswith("error: likelihood maximisation stalled with relative gap ")

    def test_calibration_shortfall_exit_2(self, workdir, capsys):
        ds = _k6_dataset(workdir, capsys, "k6-refused")
        err = refused(
            capsys, "accumulate", ds, "--beta", "1e-6", "--gmin", "1",
            "--n-calib-min", "1000000000",
        )
        assert err.startswith("error: cycle 0: only ")
        assert err.endswith(" calibration trials available, need 1000000000\n")

    def test_infeasible_plan_exit_2(self, workdir, capsys, vertices):
        idx = int(np.flatnonzero(vertices.deterministic_mask)[0])
        d = ConditionalDistribution(vertices.vertices[idx].reshape(4, 4))
        (workdir / "local.json").write_text(d.to_json())
        err = refused(capsys, "plan", workdir / "local.json", "--eps", "1e-3", "--k-range", "4:4")
        assert err == "error: no feasible block length in [4]\n"

    def test_memory_error_exit_2_with_one_line(self, workdir, capsys, monkeypatch):
        # a bare MemoryError, as a 2**31-position table's arange raises on a
        # small host; raised here without allocating anything
        def exhausted(*args, **kwargs):
            raise MemoryError

        (workdir / "ones.json").write_text(ONES_TABLE)
        monkeypatch.setattr(pef, "block_gain", exhausted)
        err = refused(capsys, "rate", workdir / "ones.json", workdir / "dist.json")
        assert err == "error: out of memory\n"


class TestDestinations:
    """``main`` opens ``--output``, and ``accumulate`` its ``--trace``,
    before any work, and writes once the result exists: an unwritable
    destination or a missing option is refused before a block is read,
    and a run that fails or writes nothing leaves an existing file as it
    was and creates none."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The calls to ``protocol.read_blocks`` from here on."""
        calls = []
        real = protocol.read_blocks
        monkeypatch.setattr(protocol, "read_blocks", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    @pytest.mark.parametrize("option", ["--trace", "--output"])
    def test_unwritable_destination_refused_before_reading(self, workdir, capsys, reads, option):
        ds = _k6_dataset(workdir, capsys, "k6-refused")
        dest = workdir / "no-such-dir" / "dest"
        err = refused(capsys, "accumulate", ds, "--beta", "1e-6", "--gmin", "1", option, dest)
        assert err == f"error: [Errno 2] No such file or directory: '{dest}'\n"
        assert reads == []

    def test_accumulate_without_beta_refused_before_reading(self, workdir, capsys, reads):
        ds = _k6_dataset(workdir, capsys, "k6-refused")
        err = refused(capsys, "accumulate", ds, "--gmin", "1")
        assert err == "error: accumulate needs --beta and --gmin\n"
        assert reads == []

    def test_plan_unwritable_output_refused_before_planning(self, workdir, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("planned before the destination was opened")

        monkeypatch.setattr(planner, "expansion_feasible", never)
        dest = workdir / "no-such-dir" / "p.json"
        err = refused(
            capsys, "plan", workdir / "dist.json", "--eps", "1e-3", "--k", "4",
            "--blocks", "1000", "--output", dest,
        )
        assert err == f"error: [Errno 2] No such file or directory: '{dest}'\n"

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    @pytest.mark.parametrize("option", ["--trace", "--output"])
    def test_refused_run_leaves_destination_as_it_was(self, workdir, capsys, option, existing):
        ds = _k6_dataset(workdir, capsys, "k6-refused")
        dest = workdir / f"refused{option}-{existing}"
        if existing:
            dest.write_bytes(b"earlier result\n")
        # --blocks 0 is refused after the destinations are open and the blocks read
        refused(capsys, "accumulate", ds, "--beta", "1e-6", "--gmin", "1", "--blocks", "0", option, dest)
        assert dest.read_bytes() == b"earlier result\n" if existing else not dest.exists()

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    def test_report_exit_1_writes_nothing(self, workdir, capsys, existing):
        state = protocol.AccumulatorState(G_run=0.0, N_run=10, bits_consumed=190)
        (workdir / "report-failed.json").write_text(json.dumps(state.to_dict()))
        (workdir / "report-ext.json").write_text(
            ExtractorParams(m_in=10**6, sigma_in=46.0, eps_ext=0.5, eps=1.0, k_out=46, d_s=8, w=5).to_json()
        )
        dest = workdir / f"report-{existing}.json"
        if existing:
            dest.write_bytes(b"earlier result\n")
        code = cli.main(
            ["report", str(workdir / "report-failed.json"), str(workdir / "report-ext.json"),
             "--k", "17", "--output", str(dest)]
        )
        assert code == cli.EXIT_PROTOCOL_FAILURE
        assert capsys.readouterr().err == "expansion summary requires a successful run\n"
        assert dest.read_bytes() == b"earlier result\n" if existing else not dest.exists()

    def test_output_replaces_a_longer_file(self, workdir, capsys):
        dest = workdir / "replaced.json"
        dest.write_text("x" * 10_000)
        code, _ = run(capsys, "strength", workdir / "dist.json", "--output", dest)
        assert code == 0
        assert strict_json(dest.read_text())["statistical_strength_bits"] > 0

    def test_output_to_a_pipe(self, workdir, capsys):
        r, w = os.pipe()
        with os.fdopen(r) as reader:
            code, _ = run(capsys, "strength", workdir / "dist.json", "--output", f"/dev/fd/{w}")
            os.close(w)
            assert code == 0
            assert strict_json(reader.read())["statistical_strength_bits"] > 0


class TestManifestHashPins:
    """Each command's ``manifest_hash`` on fixed inputs.  Paths are hashed
    as given, so the commands run in a fresh directory on relative names:
    the bundled files copied in, hand-written JSON and a fixed-seed dataset.
    A change to the hashed parameters, their encoding or the order of the
    input files changes a digest."""

    def test_every_command_hash_pinned(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("commissioning_counts.json", "commissioning_distribution.json"):
            Path(name).write_bytes((resources.files("direx.data") / name).read_bytes())
        Path("pef.json").write_text(ONES_TABLE)
        Path("state.json").write_text(json.dumps(
            {"G_run": 1.7e9, "N_run": 49977714, "bits_consumed": 949576566,
             "succeeded": True, "stop_block": 49977714}
        ))
        Path("ext.json").write_text(json.dumps(
            {"m_in": 14698652631040, "sigma_in": 1181264480.0, "eps_ext": 1.78e-9,
             "eps": 5.7e-7, "k_out": 1, "d_s": 1, "w": 1}
        ))
        dist = "commissioning_distribution.json"
        runs = [
            ("fit", "commissioning_counts.json"),
            ("strength", dist),
            ("pef-opt", dist, "--beta", "1e-6", "--k", "4"),
            ("rate", "pef.json", dist),
            ("plan", dist, "--eps", "1e-3", "--k", "4", "--blocks", "1000"),
            ("simulate", dist, "--k", "4", "--blocks", "40", "--seed", "3", "--out", "ds"),
            ("accumulate", "ds", "--beta", "1e-6", "--gmin", "1e9"),
            ("extract-params", "--m-in", "2560000", "--sigma-in", "2000", "--eps-ext", "1e-3",
             "--eps", "1e-2"),
            ("report", "state.json", "ext.json", "--k", "17"),
        ]
        hashes = {}
        for argv in runs:
            code, out = run(capsys, *argv)
            assert code in (0, 1), argv
            hashes[argv[0]] = strict_json(out)["manifest_hash"]
        assert hashes == {
            "fit": "d1581595b9147b2e",
            "strength": "4c7d66cdfad13c1e",
            "pef-opt": "ccbc66853efc509d",
            "rate": "1d274930f8c9456d",
            "plan": "6003acc2ad918d3d",
            "simulate": "236441d847fcbfc4",
            "accumulate": "b1ad9b25ba158995",
            "extract-params": "6583431971b89bd6",
            "report": "bf8c9287b01bdaa3",
        }


#: run ``direx`` with the arguments
_MAIN = "import sys; from direx import cli; sys.exit(cli.main(sys.argv[1:]))"

#: run ``direx`` with the arguments after the first, then write the names
#: of every module the interpreter loaded to the file named first
_PROBE = """
import json, sys
from direx import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(sys.modules), fh)
sys.exit(code)
"""


def fresh_env() -> dict:
    """This process's environment, with the direx under test first on the path."""
    src = str(Path(direx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def loaded_modules(tmp_path, *argv) -> set[str]:
    """Modules a fresh interpreter has loaded when ``direx *argv`` ends."""
    listing = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(listing), *map(str, argv)],
        env=fresh_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(strict_json(listing.read_text()))


class TestImportSets:
    """Each command loads only the layers it runs."""

    EXTRACT = ("extract-params", "--m-in", "14698652631040", "--sigma-in", "1181264480",
               "--eps-ext", "1.78e-9", "--eps", "5.7e-7", "--beta", "4.7614e-8")

    def test_extract_params_and_report_load_no_numpy_or_mpmath(self, tmp_path):
        modules = loaded_modules(tmp_path, *self.EXTRACT, "--output", tmp_path / "ext.json")
        assert not {"numpy", "mpmath"} & modules
        assert strict_json((tmp_path / "ext.json").read_text())["in_set_X"] is True
        state = direx.AccumulatorState(
            G_run=1.7e9, N_run=1000, bits_consumed=19_000, succeeded=True, stop_block=1000
        )
        (tmp_path / "state.json").write_text(json.dumps(state.to_dict()))
        modules = loaded_modules(
            tmp_path, "report", tmp_path / "state.json", tmp_path / "ext.json", "--k", "17"
        )
        assert "direx.ledger" in modules
        assert not {"numpy", "mpmath", "direx.protocol"} & modules

    def test_simulate_and_accumulate_load_no_planner_or_mpmath(self, workdir, tmp_path):
        ds = tmp_path / "ds"
        modules = loaded_modules(
            tmp_path, "simulate", workdir / "dist.json", "--k", "4", "--blocks", "40",
            "--seed", "3", "--out", ds, "--threads", "1",
        )
        assert "direx.protocol" in modules
        assert not {"direx.planner", "mpmath", "direx.pef", "direx._ipm"} & modules
        modules = loaded_modules(
            tmp_path, "accumulate", ds, "--beta", "1e-6", "--gmin=-1e9", "--threads", "1"
        )
        assert "direx.pef" in modules
        assert not {"direx.planner", "mpmath"} & modules


class TestLazyExports:
    def test_every_export_resolves_to_its_layer_and_is_listed(self):
        assert len(direx.__all__) == 40
        assert set(direx.__all__) <= set(dir(direx))
        for name in direx.__all__:
            if name in direx._SUBMODULES:
                want = importlib.import_module(f"direx.{name}")
            else:
                want = getattr(importlib.import_module(direx._OWNER[name]), name)
            assert getattr(direx, name) is want
        namespace: dict = {}
        exec("from direx import *", namespace)
        assert set(direx.__all__) <= set(namespace)
