"""Timing-leakage check of roamauth's secret-dependent P-256 code, after dudect
(Reparaz, Balasch and Verbauwhede, "Dude, is my code constant time?", DATE 2017).

For each case, two classes of secret input are interleaved at random, each
call is timed with `time.perf_counter_ns`, the slowest 5% of all timings are
cropped, and Welch's t and the mean difference (first class minus second, in
ns) are reported.  |t| above 4.5 is dudect's threshold for a leak.  The cases:

* `_sign_digest`, a digest whose RFC 6979 nonce is below 2^248 against one whose
  nonce is a full 256 bits (digests found by searching seeded ones);
* `_sign_digest` with its nonce replaced by a chosen one, below 2^192 against a
  full 256 bits (no digest search finds such nonces);
* P-256 `scalar_mul`, a scalar below 2^128 against a full one, on G, on another
  point, and on a point with a fixed-base table;
* `_card_check` with the right and a wrong password of the same length;
* `ae_decrypt` with a good and a flipped tag.

It reads P-256 only: the toy curve is a table lookup and claims no constant
time.  Not part of the test suite, as timing depends on the host.  Run from the
repository root:

    PYTHONPATH=src python tools/leakage.py [--calls 60000]
"""

from __future__ import annotations

import argparse
import gc
import math
import random
import statistics
import sys
import time

from roamauth import curve as ec
from roamauth import proposed as prop
from roamauth import suite as suite_mod
from roamauth.curve import P256
from roamauth.harness import build_proposed_world
from roamauth.suite import DIGEST_BYTES, AuthenticationError, CryptoSuite

THRESHOLD = 4.5
CLASS_INPUTS = 64  # inputs per class, used in turn
CROP = 0.95  # timings above this quantile of both classes together are dropped


def welch(a: list[int], b: list[int]) -> tuple[float, float]:
    """Welch's t and the mean difference of a and b."""
    ma, mb = statistics.fmean(a), statistics.fmean(b)
    se = math.sqrt(statistics.variance(a, ma) / len(a) + statistics.variance(b, mb) / len(b))
    return (ma - mb) / se if se else 0.0, ma - mb


def measure(call, inputs: tuple[list, list], calls: int, rng: random.Random) -> tuple[float, float]:
    """Time `call(x)` `calls` times, x from a class drawn at random each call."""
    times: tuple[list[int], list[int]] = ([], [])
    picks = [rng.randrange(2) for _ in range(calls)]
    seen = [0, 0]
    clock = time.perf_counter_ns
    gc.disable()
    try:
        for c in picks:
            x = inputs[c][seen[c] % len(inputs[c])]
            seen[c] += 1
            t0 = clock()
            call(x)
            times[c].append(clock() - t0)
    finally:
        gc.enable()
    cut = sorted(times[0] + times[1])[int(CROP * calls)]
    return welch([t for t in times[0] if t <= cut], [t for t in times[1] if t <= cut])


def _digests(suite: CryptoSuite, priv: int, rng: random.Random, short: bool) -> list[bytes]:
    """Seeded digests whose RFC 6979 nonce under priv is below 2^248 (short) or
    has its top bit set (full)."""
    found = []
    while len(found) < CLASS_INPUTS:
        digest = rng.randbytes(DIGEST_BYTES)
        k = suite_mod._rfc6979_nonce(P256, priv, digest)
        if (k < 1 << 248) if short else (k >> 255):
            found.append(digest)
    return found


def _short_and_full(rng: random.Random, short_bits: int) -> tuple[list[int], list[int]]:
    short = [rng.randrange(1, 1 << short_bits) for _ in range(CLASS_INPUTS)]
    full = [rng.randrange(1 << 255, P256.n) for _ in range(CLASS_INPUTS)]
    return short, full


def cases(rng: random.Random):
    """(name, call, (first class, second class)) for every case."""
    suite = CryptoSuite(P256)
    key = suite.keygen(rng)
    sign = lambda digest: suite._sign_digest(key.priv, digest)
    yield ("_sign_digest, nonce < 2^248 vs full", sign,
           (_digests(suite, key.priv, rng, True), _digests(suite, key.priv, rng, False)))

    short, full = _short_and_full(rng, 192)
    chosen = {rng.randbytes(DIGEST_BYTES): k for k in short + full}
    by_nonce = {k: d for d, k in chosen.items()}
    real_nonce = suite_mod._rfc6979_nonce

    def sign_chosen(digest):
        suite_mod._rfc6979_nonce = lambda cp, priv, d: chosen[d]
        try:
            return suite._sign_digest(key.priv, digest)
        finally:
            suite_mod._rfc6979_nonce = real_nonce

    yield ("_sign_digest, chosen nonce < 2^192 vs full", sign_chosen,
           ([by_nonce[k] for k in short], [by_nonce[k] for k in full]))

    point = ec.scalar_mul(P256, rng.randrange(2, P256.n - 1), P256.generator)
    tabled = ec.scalar_mul(P256, rng.randrange(2, P256.n - 1), P256.generator)
    for use in range(ec.TABLE_BREAK_EVEN):
        ec.scalar_mul(P256, rng.randrange(1, P256.n), tabled, long_term=use == 0)
    if (tabled.x, tabled.y) not in ec._tables:
        sys.exit("leakage: no fixed-base table was built for the tabled point")
    for name, pt in (("G", P256.generator), ("another point", point),
                     ("a point with a table", tabled)):
        yield (f"scalar_mul on {name}, k < 2^128 vs full",
               lambda k, pt=pt: ec.scalar_mul(P256, k, pt), _short_and_full(rng, 128))

    world = build_proposed_world(suite, rng)
    wrong = [world.mu.replace(password=rng.randbytes(len(world.mu.password)))
             for _ in range(CLASS_INPUTS)]

    def card_check(mu):
        try:
            prop._card_check(suite, mu)
        except prop.LocalVerificationError:
            pass

    yield "_card_check, right vs wrong password", card_check, ([world.mu], wrong)

    aead_key = rng.randbytes(32)
    good = [suite.ae_encrypt(aead_key, rng.randbytes(150), rng) for _ in range(CLASS_INPUTS)]
    flipped = [c[:-1] + bytes([c[-1] ^ 1]) for c in good]

    def open_sealed(sealed):
        try:
            suite.ae_decrypt(aead_key, sealed)
        except AuthenticationError:
            pass

    yield "ae_decrypt, good vs flipped tag", open_sealed, (good, flipped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=60_000, help="timed calls per case")
    parser.add_argument("--seed", type=int, default=1, help="seed of the inputs and the class order")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    print(f"{'case':52s} {'t':>8s} {'mean diff ns':>13s}")
    for name, call, inputs in cases(rng):
        t, diff = measure(call, inputs, args.calls, rng)
        flag = "  |t| > 4.5" if abs(t) > THRESHOLD else ""
        print(f"{name:52s} {t:8.1f} {diff:13.1f}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
