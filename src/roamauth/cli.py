"""Command-line interface: handshakes, attacks, and comparison reports.

Four subcommands:

* register  - issue a smart card to a user and write it to a card file
* handshake - run one scenario, write transcript + cost report, exit 0 iff
              both sides derived the same key
* attack    - run one adversary strategy, write the outcome JSON, exit 0 iff
              the verdict matches --expect
* report    - assemble the communication/computation/functionality tables
              from prior run artifacts

Every command is deterministic under --seed, and the command line alone fixes
a run (the curve is --curve, default p256, or the scenario file's).  Security
assertions (--expect failure, and the functionality matrix) are refused on the
toy curve unless --allow-toy is set, because its discrete logs are breakable
by design.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import attacks, harness
from . import curve as ec
from . import proposed as prop
from .suite import DIGEST_BYTES, CryptoSuite, identity_from_label

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _is_toy(suite: CryptoSuite) -> bool:
    """Whether the discrete-log oracle can brute-force the curve."""
    return suite.cp.n <= ec.DLOG_MAX_ORDER


# ---------------------------------------------------------------------------
# register


def cmd_register(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        print(f"error: {out} exists (use --force to overwrite)", file=sys.stderr)
        return EXIT_USAGE
    suite = CryptoSuite(ec.get_profile(args.curve))
    rng = random.Random(args.seed)
    world = harness.build_proposed_world(
        suite, rng, user_label=args.id, password=args.password.encode()
    )
    card = world.mu.card
    record = {
        "curve": suite.cp.name,
        "world_seed": args.seed,
        "user_label": args.id,
        "masked_key": card.masked_key.hex(),
        "login_verifier": card.login_verifier.hex(),
        "home_dh_pub": ec.point_to_bytes(suite.cp, card.home_dh_pub).hex(),
        "home_id": card.home_id.hex(),
        "card_salt": card.card_salt.hex(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2))
    print(f"card written to {out}")
    return EXIT_OK


_CARD = {"curve": str, "world_seed": int, "user_label": str, "masked_key": str,
         "login_verifier": str, "home_dh_pub": str, "home_id": str, "card_salt": str}


def load_card(suite: CryptoSuite, path: Path) -> tuple[prop.SmartCard, str, int]:
    """Read a `register` card file; a malformed record, a card from another
    curve, a bad hex value, width or home point raise `HarnessError`."""
    rec = harness.strict_record(path.read_text(encoding="utf-8"), _CARD, "card file")
    if rec["curve"] != suite.cp.name:
        raise harness.HarnessError(f"card was issued on curve {rec['curve']}, not {suite.cp.name}")
    try:
        raw = {k: bytes.fromhex(rec[k]) for k in
               ("masked_key", "login_verifier", "home_id", "home_dh_pub", "card_salt")}
        if any(len(raw[k]) != DIGEST_BYTES for k in ("masked_key", "login_verifier", "home_id")):
            raise harness.HarnessError(f"card file: a hash or id is not {DIGEST_BYTES} bytes")
        home_dh_pub = suite.validate_point(ec.point_from_bytes(suite.cp, raw["home_dh_pub"]))
        card = prop.SmartCard(raw["masked_key"], raw["login_verifier"], home_dh_pub, raw["home_id"])
        card = prop.card_finalize(card, raw["card_salt"])
    except (ValueError, prop.ValidationError) as exc:  # ValueError: hex or CurveError
        raise harness.HarnessError(f"card file: {exc}") from exc
    return card, rec["user_label"], rec["world_seed"]


# ---------------------------------------------------------------------------
# handshake


def _tamper_hook(kind: str):
    """Flip the last byte of every open `kind` frame; `hook.flipped` counts them."""
    def hook(sender, receiver, msg_kind, raw: bytes) -> bytes:
        if msg_kind == kind:
            hook.flipped += 1
            body = bytearray(raw)
            body[-1] ^= 0x01
            return bytes(body)
        return raw

    hook.flipped = 0
    return hook


def cmd_handshake(args) -> int:
    if args.scenario_file:
        try:
            spec = harness.ScenarioSpec.load(args.scenario_file)
        except (OSError, ValueError, harness.HarnessError) as exc:
            print(f"error: bad scenario file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        args.scheme = spec.scheme
        args.scenario = spec.scenario
        args.seed = spec.seed
        args.curve = spec.curve
        args.update_rounds = spec.update_rounds
    suite = CryptoSuite(ec.get_profile(args.curve))
    rng = random.Random(args.seed)

    world = None
    if args.card:
        if args.scheme != "proposed":
            print("error: --card applies to the proposed scheme only", file=sys.stderr)
            return EXIT_USAGE
        try:
            card, label, world_seed = load_card(suite, Path(args.card))
        except (OSError, ValueError, harness.HarnessError) as exc:
            print(f"error: cannot load card: {exc}", file=sys.stderr)
            return EXIT_USAGE
        world = harness.build_proposed_world(suite, random.Random(world_seed),
                                             user_label=label)
        password = (args.password or "").encode()
        world.mu = prop.MUState(identity_from_label(label), password, card)

    adversary = _tamper_hook(args.tamper) if args.tamper else None
    try:
        result = harness.run_session(
            suite, args.scheme, args.scenario, rng,
            world=world, adversary=adversary, update_rounds=args.update_rounds,
        )
    except harness.UnsupportedScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if adversary is not None and not adversary.flipped:
        # a misspelt kind, one the scenario never sends, or a secure-channel one
        print(f"error: no open {args.tamper} frame to tamper with", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.scheme}-{args.scenario}"
    (out_dir / f"{stem}-transcript.jsonl").write_text(result.transcript.to_jsonl())
    (out_dir / f"{stem}-cost.json").write_text(result.report.to_json())
    (out_dir / f"{stem}-comm.csv").write_text(result.report.comm_csv())
    (out_dir / f"{stem}-ops.csv").write_text(result.report.ops_csv())
    (out_dir / f"{stem}-transcript.bin").write_bytes(result.transcript.to_binary())

    if result.outcome.get("success"):
        print(f"handshake ok: {result.report.rounds} messages, "
              f"mobile bits {result.report.mobile_bits}")
        return EXIT_OK
    print(f"handshake failed: {result.outcome.get('abort', 'keys differ')}",
          file=sys.stderr)
    return EXIT_MISMATCH


# ---------------------------------------------------------------------------
# attack


def load_dictionary(path: Path) -> list[bytes]:
    """One candidate per line; lines of even-length hex are taken as raw
    bytes, anything else as UTF-8."""
    words: list[bytes] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            words.append(bytes.fromhex(line))
        except ValueError:
            words.append(line.encode())
    return words


def cmd_attack(args) -> int:
    if args.attack not in attacks.ATTACK_NAMES:
        print(
            f"error: unknown attack {args.attack!r}; known: "
            + ", ".join(attacks.ATTACK_NAMES),
            file=sys.stderr,
        )
        return EXIT_USAGE
    suite = CryptoSuite(ec.get_profile(args.curve))
    if _is_toy(suite) and args.expect == "failure" and not args.allow_toy:
        print(
            "error: refusing a security assertion on the toy curve - its "
            "discrete logs are brute-forceable by design, so attack failure "
            "means nothing there (pass --allow-toy to override)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.cdl_oracle and not _is_toy(suite):
        print(f"error: --cdl-oracle grants the discrete-log oracle, which cannot "
              f"brute-force {suite.cp.name}", file=sys.stderr)
        return EXIT_USAGE

    try:
        dictionary = load_dictionary(Path(args.dict)) if args.dict else None
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read dictionary: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if dictionary == []:
        print(f"error: dictionary {args.dict} holds no candidates", file=sys.stderr)
        return EXIT_USAGE

    rng = random.Random(args.seed)
    adapter = attacks.make_adapter(args.scheme, suite, rng)
    outcome = attacks.run_attack(
        args.attack, adapter, rng,
        dictionary=dictionary, trials=args.trials, cdl=args.cdl_oracle,
    )

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(outcome.to_json())
    print(f"{outcome.attack} vs {outcome.scheme}: "
          f"{'succeeded' if outcome.succeeded else 'failed'} - {outcome.detail}")

    matches = outcome.succeeded == (args.expect == "success")
    return EXIT_OK if matches else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# report


REQUIRED_COSTS = (("proposed", "foreign-auth"), ("mun", "foreign-auth"))


def load_cost_report(path: Path) -> harness.CostReport:
    """Read a `handshake` cost report; a malformed record, or one whose scheme
    and scenario are not those of its file name, raise `HarnessError`."""
    report = harness.CostReport.from_json(path.read_text(encoding="utf-8"))
    if path.name != f"{report.scheme}-{report.scenario}-cost.json":
        raise harness.HarnessError(f"holds the {report.scheme} {report.scenario} report")
    return report


def cmd_report(args) -> int:
    runs = Path(args.runs_dir)
    if not runs.is_dir():
        print(f"error: runs directory {runs} does not exist; run `roamauth "
              f"handshake` and `roamauth attack` first", file=sys.stderr)
        return EXIT_USAGE

    suite = CryptoSuite(ec.get_profile(args.curve))
    if _is_toy(suite) and not args.allow_toy:
        print("error: the functionality matrix asserts attack failures, which "
              "are meaningless on the toy curve (pass --allow-toy to override)",
              file=sys.stderr)
        return EXIT_USAGE

    cost_reports = {}
    missing: list[str] = []
    outcomes: dict[str, dict[str, attacks.AttackOutcome]] = {}
    try:
        for scheme, scenario in REQUIRED_COSTS:
            path = runs / f"{scheme}-{scenario}-cost.json"
            if not path.exists():
                missing.append(str(path))
                continue
            cost_reports[scheme] = load_cost_report(path)
        for path in sorted(runs.glob("attack-*.json")):
            outcome = attacks.AttackOutcome.from_json(path.read_text(encoding="utf-8"))
            outcomes.setdefault(outcome.attack, {})[outcome.scheme] = outcome
    except (OSError, ValueError, harness.HarnessError) as exc:
        print(f"error: bad run artifact {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    needed = [
        n for n in attacks.ATTACK_NAMES
        if n not in outcomes or any(s not in outcomes[n] for s in ("proposed", "mun"))
    ]
    if needed:
        missing.append(f"attack outcomes for: {', '.join(needed)}")
    if missing:
        print("error: missing prior run artifacts:\n  " + "\n  ".join(missing),
              file=sys.stderr)
        return EXIT_USAGE

    rng = random.Random(args.seed)
    features = harness.measure_features(suite, rng)
    matrix = harness.functionality_matrix(outcomes, features)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    comm = "\n".join(cost_reports[s].comm_csv() for s in ("proposed", "mun"))
    ops = "\n".join(cost_reports[s].ops_csv() for s in ("proposed", "mun"))
    (out_dir / "table3_communication.csv").write_text(comm)
    (out_dir / "table4_operations.csv").write_text(ops)
    (out_dir / "table5_functionality.csv").write_text(matrix.to_csv())
    (out_dir / "table5_functionality.json").write_text(matrix.to_json())
    summary = {s: json.loads(cost_reports[s].to_json()) for s in cost_reports}
    (out_dir / "cost_summary.json").write_text(json.dumps(summary, indent=2))

    for scheme, rep in cost_reports.items():
        print(f"{scheme}: rounds={rep.rounds} (paper {rep.paper_rounds}), "
              f"mobile bits={rep.mobile_bits} (paper {rep.paper_bits}, "
              f"delta {rep.bits_delta})")
    flagged = [r["label"] for r in matrix.rows if r["flag"]]
    print(f"functionality rows flagged: {flagged if flagged else 'none'}")
    print(f"report written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _at_least_one(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roamauth",
        description="Roaming-authentication protocol engine and attack harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="deterministic run seed")
        sp.add_argument("--curve", choices=sorted(ec.PROFILES), default="p256",
                        help="curve profile")

    sp = sub.add_parser("register", help="register a user and write a card file")
    common(sp)
    sp.add_argument("--id", required=True, help="user label")
    sp.add_argument("--password", required=True)
    sp.add_argument("--out", required=True, help="card file path")
    sp.add_argument("--force", action="store_true", help="overwrite existing card file")
    sp.set_defaults(fn=cmd_register)

    sp = sub.add_parser("handshake", help="run one protocol scenario")
    common(sp)
    sp.add_argument("--scheme", choices=harness.SCHEMES, default="proposed")
    sp.add_argument("--scenario", choices=harness.SCENARIOS, default="foreign-auth")
    sp.add_argument("--scenario-file",
                    help="declarative scenario JSON (overrides scheme/scenario/seed/curve)")
    sp.add_argument("--card", help="card file from `register` (proposed scheme)")
    sp.add_argument("--password", help="password for --card logins")
    sp.add_argument("--update-rounds", type=_at_least_one, default=1)
    sp.add_argument("--tamper", help="open message kind to flip one byte of in flight "
                    "(exit 2 if the run sends no such frame)")
    sp.add_argument("--out", default="runs", help="output directory")
    sp.set_defaults(fn=cmd_handshake)

    sp = sub.add_parser("attack", help="run one adversary strategy")
    common(sp)
    sp.add_argument("--attack", required=True)
    sp.add_argument("--scheme", choices=harness.SCHEMES, required=True)
    sp.add_argument("--expect", choices=("success", "failure"), required=True)
    sp.add_argument("--dict", help="dictionary file (one candidate per line)")
    sp.add_argument("--trials", type=_at_least_one, default=200,
                    help="trials for the traceability game")
    sp.add_argument("--cdl-oracle", action="store_true",
                    help="grant the small-group discrete-log oracle (toy curve only)")
    sp.add_argument("--allow-toy", action="store_true",
                    help="permit security assertions on the toy curve")
    sp.add_argument("--out", help="outcome JSON path")
    sp.set_defaults(fn=cmd_attack)

    sp = sub.add_parser("report", help="assemble comparison tables from run artifacts")
    common(sp)
    sp.add_argument("--runs-dir", default="runs", help="directory with prior artifacts")
    sp.add_argument("--out", default="report", help="output directory")
    sp.add_argument("--allow-toy", action="store_true")
    sp.set_defaults(fn=cmd_report)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:  # every read is checked where it happens; this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
