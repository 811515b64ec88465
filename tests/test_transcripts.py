"""Frozen transcript bytes: the SHA-256 of `Transcript.to_binary()` for every
supported (scheme, scenario) on the toy curve, plus foreign-auth for both
schemes on P-256, each run from `random.Random(SEED)`.

A change to the wire codec, a message layout or a step's use of the rng
shows here.  Regenerate the vector file (only for an intended change) with

    PYTHONPATH=src python tests/test_transcripts.py > tests/vectors/transcripts.tsv
"""

import hashlib
import random
from pathlib import Path

import pytest

from roamauth.curve import P256, TOY
from roamauth.harness import run_session
from roamauth.suite import CryptoSuite

VECTORS = Path(__file__).parent / "vectors" / "transcripts.tsv"
SEED = 2013

CASES = [
    ("toy", "proposed", "registration"),
    ("toy", "proposed", "foreign-auth"),
    ("toy", "proposed", "home-auth"),
    ("toy", "proposed", "key-update"),
    ("toy", "proposed", "password-change"),
    ("toy", "mun", "registration"),
    ("toy", "mun", "foreign-auth"),
    ("toy", "mun", "key-update"),
    ("p256", "proposed", "foreign-auth"),
    ("p256", "mun", "foreign-auth"),
]
CURVES = {"toy": TOY, "p256": P256}


def transcript_digest(curve: str, scheme: str, scenario: str) -> str:
    res = run_session(CryptoSuite(CURVES[curve]), scheme, scenario, random.Random(SEED))
    assert res.outcome["success"], res.outcome
    return hashlib.sha256(res.transcript.to_binary()).hexdigest()


def _frozen() -> dict[tuple[str, str, str], str]:
    rows = [ln.split("\t") for ln in VECTORS.read_text().splitlines() if ln.strip()]
    return {(curve, scheme, scenario): digest for curve, scheme, scenario, digest in rows}


def test_vector_file_covers_every_case():
    assert sorted(_frozen()) == sorted(CASES)


@pytest.mark.parametrize("curve,scheme,scenario", CASES)
def test_transcript_bytes_are_frozen(curve, scheme, scenario):
    assert transcript_digest(curve, scheme, scenario) == _frozen()[(curve, scheme, scenario)]


if __name__ == "__main__":
    for case in CASES:
        print("\t".join([*case, transcript_digest(*case)]))
