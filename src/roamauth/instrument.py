"""Operation counting for cost accounting.

The harness binds a per-party counter around each protocol step; every
public crypto-suite call then increments exactly one counter (the innermost
active one).  Internal arithmetic (curve ops inside signatures, key
derivation inside AEAD) never reaches these counters, matching the
cost-table convention that a signature is one operation, not a hash plus
point multiplications.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, fields


@dataclass
class OpCounts:
    """Primitive-operation tallies for one party during one run.

    `xor`..`vsign` mirror the comparison-table columns; `kdf`, `mac` and
    `vcert` are bookkeeping for operations the tables do not itemize
    (point-to-key derivation, keyed MACs, certificate checks).
    """

    xor: int = 0
    hash: int = 0
    mul: int = 0
    mul_pre: int = 0  # subset of mul that is message-independent
    esym: int = 0
    dsym: int = 0
    gsign: int = 0
    vsign: int = 0
    kdf: int = 0
    mac: int = 0
    vcert: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}


_FIELD_NAMES = tuple(f.name for f in fields(OpCounts))

_active: contextvars.ContextVar[OpCounts | None] = contextvars.ContextVar(
    "roamauth_opcounts", default=None
)
_unattributed = 0


class _Counting:
    """A `counting` block: binds the counter on entry and restores the one
    bound before on exit, also when the block raises."""

    __slots__ = ("counter", "token")

    def __init__(self, counter: OpCounts):
        self.counter = counter

    def __enter__(self) -> OpCounts:
        self.token = _active.set(self.counter)
        return self.counter

    def __exit__(self, *exc) -> None:
        _active.reset(self.token)


def counting(counter: OpCounts) -> _Counting:
    """Attribute suite operations to `counter` within the block."""
    return _Counting(counter)


def active_counter() -> OpCounts | None:
    """The counter bound by the innermost `counting` block, if any."""
    return _active.get()


def record(op: str, *, pre: bool = False) -> None:
    global _unattributed
    counter = _active.get()
    if counter is None:
        _unattributed += 1
        return
    counter.__dict__[op] += 1
    if pre and op == "mul":
        counter.mul_pre += 1


def reset_unattributed() -> None:
    global _unattributed
    _unattributed = 0


def unattributed_ops() -> int:
    return _unattributed
