"""Frozen attack outputs: the SHA-256 of the concatenated `to_json()` of
every outcome of three seeded attack runs.  The digest covers each verdict,
its evidence and detail string, and the order in which the games draw from
the rng.

* `matrix-toy`, `matrix-p256`: `run_attack_matrix(suite, Random(SEED),
  trials=200)`, outcomes in (attack, scheme) order;
* `cdl-toy`: with the toy discrete-log oracle granted, the runs of
  `CDL_ATTACKS` against each scheme in turn, from one `Random(SEED)`.

Regenerate the vector file (only for an intended change) with

    PYTHONPATH=src python tests/test_attack_vectors.py > tests/vectors/attack_matrix.tsv
"""

import hashlib
import random
from pathlib import Path

import pytest

from roamauth.attacks import ATTACK_NAMES, make_adapter, run_attack, run_attack_matrix
from roamauth.curve import P256, TOY
from roamauth.suite import CryptoSuite

VECTORS = Path(__file__).parent / "vectors" / "attack_matrix.tsv"
SEED = 2013
SCHEMES = ("proposed", "mun")
CDL_ATTACKS = ("mu-impersonation", "replay", "forward-secrecy")


def _matrix(cp):
    matrix = run_attack_matrix(CryptoSuite(cp), random.Random(SEED), trials=200)
    return [matrix[name][scheme] for name in ATTACK_NAMES for scheme in SCHEMES]


def _cdl_toy():
    suite, rng = CryptoSuite(TOY), random.Random(SEED)
    outcomes = []
    for scheme in SCHEMES:
        adapter = make_adapter(scheme, suite, rng)
        outcomes += [run_attack(name, adapter, rng, cdl=True) for name in CDL_ATTACKS]
    return outcomes


CASES = {
    "matrix-toy": lambda: _matrix(TOY),
    "matrix-p256": lambda: _matrix(P256),
    "cdl-toy": _cdl_toy,
}


def outcomes_digest(case: str) -> str:
    text = "".join(outcome.to_json() for outcome in CASES[case]())
    return hashlib.sha256(text.encode()).hexdigest()


def _frozen() -> dict[str, str]:
    rows = [ln.split("\t") for ln in VECTORS.read_text().splitlines() if ln.strip()]
    return {case: digest for case, digest in rows}


def test_vector_file_covers_every_case():
    assert sorted(_frozen()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_attack_outputs_are_frozen(case):
    assert outcomes_digest(case) == _frozen()[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"{case}\t{outcomes_digest(case)}")
