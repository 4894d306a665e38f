"""A seed's bits, pinned across code versions.

Every simulated quantity must be bit-identical for a given seed, in this
version of the code and in the next.  These tests hash the sampler's
columns, the vectorised witness and every file that ``direx simulate``
writes, and compare with SHA-256 digests recorded before the sampler and
block reader were last rewritten.  A change that alters any of them
changes what a published seed reproduces; the digests then change only
with a stated reason.

The witness runs on a table whose anchors are written out by hand, so the
digests depend on the sampler, the table interpolation and the witness
kernel, but not on the round-off of a PEF optimisation.  Numpy does not
promise the same ``Generator`` streams across its own releases; a numpy
upgrade that breaks these digests changes every seed's data too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from direx import cli, pef, protocol
from direx.data import commissioning_distribution

#: row 00 of a law with many detections, so that blocks hold several each
DENSE = np.full((4, 4), 0.25)
DENSE[0] = (0.4, 0.1, 0.2, 0.3)


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 of the arrays as little-endian 8-byte values, in order."""
    h = hashlib.sha256()
    for a in arrays:
        kind = "<f8" if np.asarray(a).dtype.kind == "f" else "<i8"
        h.update(np.ascontiguousarray(a, dtype=kind).tobytes())
    return h.hexdigest()


def hand_table(k: int, beta: float = 1e-6) -> pef.PefTable:
    """A k-table with fixed, distinct deviations at each anchor."""
    j_mid = 2 ** (k - 1) + 3
    ramp = np.arange(16.0).reshape(4, 4) - 7.5
    anchors = tuple(
        pef.TrialPef.from_excess(ramp * (1 + i) / 3, beta, q)
        for i, q in enumerate(pef._anchor_qs(k, j_mid))
    )
    return pef.PefTable(k=k, beta=beta, j_mid=j_mid, anchors=anchors)


@pytest.mark.parametrize(
    "law, k, m, seed, stream, want",
    [
        ("commissioning", 0, 500, 3, 11,
         "4881b82a9b92672c4891d2f36452dff020044c840202eec5ab49c3b6ba63ab95"),
        ("commissioning", 6, 3000, 3, 12,
         "3266f7697999cdbbca8a29820fe2e7d1625e7295227063266d80d855e56f982c"),
        ("commissioning", 17, 64, 3, 13,
         "5ddb69a57ceb67c1504ec84ad8361bb3d26128cb4b5ccac7e87943bf6d6e1745"),
        ("dense", 6, 3000, 4, 14,
         "34837838be7f00c024c6ad3ace2acc9cc695445d01a6255a1bdd136d55d80693"),
    ],
)
def test_sampler_columns(law, k, m, seed, stream, want):
    nu = commissioning_distribution().table if law == "commissioning" else DENSE
    cols = protocol._sample_blocks(nu, k, m, protocol.stream_rng(seed, stream))
    assert digest(*cols) == want


@pytest.mark.parametrize(
    "k, n_blocks, want",
    [
        # 5,000 blocks span two of the witness's chunks
        (6, 5000,
         "84d517b4fa0363976490ff375dd7aff2cbfded36aecead6e2fccfea122668559"),
        (17, 300,
         "924eb02c3bcf63bdd4c2e2de71d38c25dbac326089b8dfc83824ad8612910ecc"),
    ],
)
def test_run_witness(k, n_blocks, want):
    w = protocol.simulate_run_witness(
        hand_table(k), commissioning_distribution(), n_blocks, seed=21, stream=2
    )
    assert digest(w) == want


#: SHA-256 of each file of ``direx simulate dist.json --k 6 --blocks 3000 --seed 5``
SIMULATE_K6 = {
    "cycle_0000/calibration.json": "aa22114e035a82f0117afad1ba8b3eacdc9ffda9c6ddbb1ca29ea454cf160854",
    "cycle_0000/expansion_0000.blocks": "984ead513d93b111f7bf019e1895f9da23d9b8e6c762a61bb1e64153d58fae10",
    "cycle_0000/expansion_0000.calib.json": "d0eef389c452d12390a3e973e5b6826cdce85c83f7ab6f6a7c45c0f51f2e832e",
    "cycle_0000/expansion_0001.blocks": "c3cdc81a57b6e2f89dcc43451fea8b2fc6d51c6b29d6a40a74f0e836bae4a025",
    "cycle_0000/expansion_0001.calib.json": "952bcda129d48042e0ebd5d76997ba0af2cf3bbc0751001313a03f6892e2929d",
    "cycle_0000/expansion_0002.blocks": "acfd9ab6d61834dbfa395b930137b05dc4aac75ee9a5cd964ec14001289e34e2",
    "cycle_0000/expansion_0002.calib.json": "7607ac9ae4c6bba848e163f6e0feae51ad4da67983cccd0884db15bbc6938e07",
    "manifest.json": "b24a4e0bd9ad638b800cc4795c082f98709400ac4e42297e1fd182633a3f07af",
}


def test_simulate_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dist.json").write_text(commissioning_distribution().to_json())
    argv = ["simulate", "dist.json", "--k", "6", "--blocks", "3000", "--seed", "5", "--out", "ds"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    got = {
        p.relative_to(tmp_path / "ds").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "ds").rglob("*"))
        if p.is_file()
    }
    assert got == SIMULATE_K6
