"""Byte pins on the output of every CLI verb.

Each case runs the command line in-process and compares the SHA-256 of what
it writes (stdout or the output file) with a pinned digest, or, for
``threshold``, the printed line itself.  A refactor that keeps the numbers
keeps every digest; any changed byte of a report, curve, counts file or
table fails here.  Seeds fix the simulated counts and the bootstrap draws.

The bytes hold for one numpy build on one CPU tier, the set of vector loops
numpy picks at import.  The digests are taken with numpy 2.4 on x86-64, keyed
by the probe ``helpers.cpu_tier()``: its "avx512" tier is numpy's AVX-512
loops, and its "libm" tier is the AVX2 and baseline loops, which round log
and power as glibc does (``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
X86_V4"`` selects it on an AVX-512 CPU; ``tests/test_cpu_tier.py`` runs this
file so).  Only SCG at q != 2 reads those loops, so only the eval cases with
such a q have a digest per tier.  Another numpy or libm may round a last bit
differently and need the digests regenerated; a failing case prints the
digest it got.
"""

import hashlib

import pytest

from helpers import cpu_tier
from steerq.cli import EXIT_OK, main

TIER = cpu_tier()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv) -> str:
    assert main(list(argv)) == EXIT_OK
    return capsys.readouterr().out


# theta (deg), chi, shots, seed (simulation and bootstrap), q list,
# digest of the simulated counts CSV, digest of the eval JSON
EVAL_CASES = [
    ("22.5", "0.74", "100000", "7", "2,1",
     "e02a9293f6cf7c27ddfb796a28fbd4c71cf771ae755f8dbb91eca6c139c66cd8",
     "d2adbdcb505198e4372d09bebbd0e61e4a3cd94968649d10d607fb72372ea0fd"),
    ("7.5", "0.81", "20000", "11", "2,1,1.5",
     "3ef16b3d128dd5d05b84b50df01e7aea17efa05d133c78a10dad0f916151c4b8",
     "9e01e340d828977bd40a7824b50e29dccb2a10a899dde5cee5ac2c07304d66f7"),
    ("15", "0.3", "5000", "3", "2,1",
     "dc1245026cf4ba94c3e9d399d790ada4f964b4f22c2d51cf86d008f13ee751a5",
     "1dbfba28212c5265057ae4e11464c2dd37ced4406b1ee6edfb68334743608605"),
]
# the eval JSON digest on the libm tier, where it differs from the avx512 one above
LIBM_JSON_DIGESTS = {
    ("22.5", "0.74"): "3ac27370feacbe5490618b9bdac74499cd21608228c4dfca217681477f4ae077",
    ("7.5", "0.81"): "1164421cade86eacb5acd1973d2cd617cf79567c8b1bd5cf9ec218a19a7dfd23",
}

EVAL_STATE_CASES = [
    ("22.5", "0.7", "9fbdc382b2e567356a26717928c95349a08dc724589f94dff018f110313137e2"),
    ("7.5", "0.81", "a963712df55e619f9af272b5767df89b69e5ce67e99f226676b438352499687e"),
    ("0", "0.5", "77ca0a9451f5ae428012296428b4ee25ef67f0cc5291a2efcb496f38329cce69"),
    ("15", "1", "229271605ecd2bfed29b266197162bec9a09f795181b4a661ffa1c0855bd8d1b"),
    ("30", "0.2", "a108390bf635d6d306916355a8b87f4b2d21b1849616f2aa0721a8e254fe60ef"),
]

SWEEP_CASES = [
    ("0", "6e3fab2bc77a383cfb74c48075e7b2fdbcbc0ddd6a20e61a7eb34ddfc1f2299d"),
    ("7.5", "e497595e9eb9e5f773f80e06feca2a0b8506a82926eebf64d7135582a9e2b2e6"),
    ("22.5", "e48d5487e6865921587f1094798b885159b7c59047490c5b527fb663a24e391e"),
]

_NEVER = "is not violated on chi in [0, 1] at theta=0deg (threshold reported as 1.0)"
THRESHOLD_CASES = [
    ("0", ("scg", "--q", "2"), f"SCG(q=2) {_NEVER}"),
    ("0", ("scg", "--q", "1"), f"SCG(q=1) {_NEVER}"),
    ("0", ("scg", "--q", "1.5"), f"SCG(q=1.5) {_NEVER}"),
    ("0", ("lsc",), f"LSC {_NEVER}"),
    ("7.5", ("scg", "--q", "2"), "SCG(q=2) threshold at theta=7.5deg: chi = 0.801392"),
    ("7.5", ("scg", "--q", "1"), "SCG(q=1) threshold at theta=7.5deg: chi = 0.878620"),
    ("7.5", ("scg", "--q", "1.5"), "SCG(q=1.5) threshold at theta=7.5deg: chi = 0.876237"),
    ("7.5", ("lsc",), "LSC threshold at theta=7.5deg: chi = 0.816496"),
    ("22.5", ("scg", "--q", "2"), "SCG(q=2) threshold at theta=22.5deg: chi = 0.577350"),
    ("22.5", ("scg", "--q", "1"), "SCG(q=1) threshold at theta=22.5deg: chi = 0.652095"),
    ("22.5", ("scg", "--q", "1.5"), "SCG(q=1.5) threshold at theta=22.5deg: chi = 0.633276"),
    ("22.5", ("lsc",), "LSC threshold at theta=22.5deg: chi = 0.577350"),
]

TABLES_DIGEST = "cac1d9153b3b00fbf7f10ef199f5aed71fdecc066d581aa044703ae99bee89c6"


@pytest.mark.parametrize("theta,chi,shots,seed,qs,csv_digest,json_digest", EVAL_CASES)
def test_simulate_then_eval(tmp_path, monkeypatch, capsys, theta, chi, shots, seed, qs,
                            csv_digest, json_digest):
    monkeypatch.chdir(tmp_path)  # the report's label is the counts path as given
    run(capsys, "simulate", "--theta", theta, "--chi", chi, "--shots", shots,
        "--seed", seed, "--out", "counts.csv")
    assert _sha256((tmp_path / "counts.csv").read_bytes()) == csv_digest
    out = run(capsys, "eval", "--counts", "counts.csv", "--q", qs,
              "--bootstrap", "1000", "--seed", seed)
    if TIER == "libm":
        json_digest = LIBM_JSON_DIGESTS.get((theta, chi), json_digest)
    assert _sha256(out.encode()) == json_digest


@pytest.mark.parametrize("theta,chi,digest", EVAL_STATE_CASES)
def test_eval_state(capsys, theta, chi, digest):
    out = run(capsys, "eval-state", "--theta", theta, "--chi", chi)
    assert _sha256(out.encode()) == digest


@pytest.mark.parametrize("theta,digest", SWEEP_CASES)
def test_sweep(tmp_path, capsys, theta, digest):
    path = tmp_path / "curve.csv"
    run(capsys, "sweep", "--theta", theta, "--steps", "101", "--out", str(path))
    assert _sha256(path.read_bytes()) == digest


@pytest.mark.parametrize("theta,criterion,line", THRESHOLD_CASES)
def test_threshold(capsys, theta, criterion, line):
    assert run(capsys, "threshold", "--theta", theta, "--criterion", *criterion) == line + "\n"


def test_tables(capsys):
    assert _sha256(run(capsys, "tables").encode()) == TABLES_DIGEST
