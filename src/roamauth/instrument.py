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

from .record import Record


class OpCounts(Record):
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

    def __init__(self, xor=0, hash=0, mul=0, mul_pre=0, esym=0, dsym=0, gsign=0, vsign=0,
                 kdf=0, mac=0, vcert=0) -> None:
        self.xor = xor
        self.hash = hash
        self.mul = mul
        self.mul_pre = mul_pre
        self.esym = esym
        self.dsym = dsym
        self.gsign = gsign
        self.vsign = vsign
        self.kdf = kdf
        self.mac = mac
        self.vcert = vcert

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


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
