"""In-memory span tracer and the wrap points that feed it.

The traced run replaces the public functions of each ``roamauth`` module
with thin wrappers that open a span (name, start, end, parent span, session
id) around the real call.  Nothing under ``src/`` changes: the wrappers are
installed by attribute assignment and removed again afterwards, so the
untraced run measures the unwrapped code.

A name imported by value (``from .encoding import encode_concat``) is a
second binding of the same function object; ``install`` finds every such
binding in the loaded ``roamauth`` modules and patches it too, recording
calls per binding ("site") so a test can show each one is reached.

Self time of a span is its duration minus the duration of its direct
children; summing self time by layer (the first dotted component of the
span name) attributes wall time without double counting.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from types import FunctionType

SPAN_CAP = 20_000  # raw spans kept for the spans file; aggregates cover all


class Tracer:
    """Span stack plus per-name aggregates.

    ``stats[name]`` is ``[count, self_ns, total_ns, raised]``.  Raw spans are
    kept up to ``SPAN_CAP`` as ``(id, name, start_ns, end_ns, parent_id,
    session)`` tuples; the aggregates cover every span regardless.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.sites: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.session: object = None
        self._next_id = 1
        for site in self.sites:
            self.sites[site] = 0

    def begin(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else 0
        frame = [name, self.clock(), 0, self._next_id, parent]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def end(self, frame: list, raised: bool = False) -> None:
        end = self.clock()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order (open: {top[0]!r})")
        duration = end - frame[1]
        if self.stack:
            self.stack[-1][2] += duration
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += duration - frame[2]
        st[2] += duration
        st[3] += raised
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], frame[0], frame[1], end, frame[4], self.session))

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def inside(self, prefix: str) -> bool:
        """True when some open span's name starts with ``prefix``."""
        return any(f[0].startswith(prefix) for f in self.stack)

    # -- reading the aggregates -------------------------------------------

    def count(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_ns(self, *names: str) -> int:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def total_ns(self, *names: str) -> int:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def raised(self, *names: str) -> int:
        return sum(self.stats[n][3] for n in names if n in self.stats)

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.stats if n.startswith(prefix)]

    def layer_self_ns(self, layer: str) -> int:
        return self.self_ns(*self.names(layer + "."))


class _TimedContext:
    """Context manager proxy that times ``__enter__`` and ``__exit__``."""

    __slots__ = ("_cm", "_tracer", "_name")

    def __init__(self, cm, tracer: Tracer, name: str):
        self._cm, self._tracer, self._name = cm, tracer, name

    def __enter__(self):
        frame = self._tracer.begin(self._name)
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.end(frame)

    def __exit__(self, *exc):
        frame = self._tracer.begin(self._name)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer.end(frame)


# ---------------------------------------------------------------------------
# wrap points


@dataclass(frozen=True)
class WrapPoint:
    """One function to trace.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.  The
    span is called ``name`` unless ``namer(args)`` gives one per call;
    ``post(tracer, args, result, pre)`` runs after a normal return, with
    ``pre`` the value ``pre(tracer)`` returned before the call.
    ``context`` marks a function that returns a context manager.
    """

    target: str
    name: str
    namer: object = None
    pre: object = None
    post: object = None
    context: bool = False


def _mul_name(args) -> str:
    cp, _k, pt = args[:3]
    return "curve.mul_g" if (pt.x == cp.gx and pt.y == cp.gy) else "curve.mul_q"


def _game_name(args) -> str:
    return "attacks.game." + args[0]


def _count_bytes(counter):
    def post(tracer, args, result, pre):
        tracer.add(counter, len(result))
    return post


def _verify_post(tracer, args, result, pre):
    if not result:
        tracer.add("suite.verify.rejects")


def _session_post(tracer, args, result, pre):
    if not result.outcome.get("success"):
        tracer.add("harness.aborts")
    if tracer.inside("attacks."):
        tracer.add("attacks.sessions")


def _hash_count(tracer):
    return tracer.count("suite.hash160")


def _ha_scan_post(tracer, args, result, pre):
    tracer.add("mun.HA.auth_hashes", tracer.count("suite.hash160") - pre)


def _guess_post(tracer, args, result, pre):
    tracer.add("attacks.offline-guess.candidates", len(args[2]))


PROPOSED_PARTIES = {
    "make_root_ca": "setup",
    "setup_home_agent": "setup",
    "setup_foreign_agent": "setup",
    "register_request": "MU",
    "register_issue": "HA",
    "card_finalize": "MU",
    "local_verify": "MU",
    "login_begin": "MU",
    "fa_process_login": "FA",
    "ha_process": "HA",
    "fa_finish": "FA",
    "mu_finish": "MU",
    "key_update_init": "MU",
    "key_update_respond": "FA",
    "key_update_confirm": "MU",
    "password_change": "MU",
    "home_login": "MU",
    "home_ha_respond": "HA",
    "home_mu_confirm": "MU",
}

MUN_PARTIES = {
    "mun_register": "HA",
    "mun_login": "MU",
    "mun_fa_forward": "FA",
    "mun_ha_auth": "HA",
    "mun_fa_respond": "FA",
    "mun_mu_respond": "MU",
    "mun_fa_verify": "FA",
    "mun_update_init": "MU",
    "mun_update_respond": "FA",
    "mun_update_confirm": "MU",
}

ATTACK_FUNCTIONS = (
    "run_attack_matrix", "make_adapter", "surveil", "default_dictionary", "link_pair",
    "attack_mu_impersonation", "attack_fa_impersonation", "attack_ha_impersonation",
    "attack_insider", "attack_traceability", "attack_replay_session_key",
    "attack_forward_secrecy",
)

SUITE_METHODS = (
    "hash160", "hash_fields", "xor160", "scalar_mul", "validate_point",
    "encode", "rand_scalar", "rand_bytes", "keygen", "kdf_point", "ae_encrypt",
    "ae_decrypt", "mac160", "sign_over", "issue_certificate", "verify_certificate",
)


def _build_wrap_points() -> tuple[WrapPoint, ...]:
    W = WrapPoint
    points = [
        W("roamauth.curve:scalar_mul", "curve.mul", namer=_mul_name),
        W("roamauth.curve:point_add", "curve.point_add"),
        W("roamauth.curve:point_to_bytes", "curve.point_to_bytes"),
        W("roamauth.curve:point_from_bytes", "curve.point_from_bytes"),
        W("roamauth.curve:validate_point", "curve.validate_point"),
        W("roamauth.curve:is_on_curve", "curve.is_on_curve"),
        W("roamauth.encoding:encode_field", "encoding.encode_field"),
        W("roamauth.encoding:encode_concat", "encoding.encode_concat",
          post=_count_bytes("encoding.encode.bytes")),
        W("roamauth.encoding:decode_concat", "encoding.decode_concat"),
        W("roamauth.encoding:field_bytes", "encoding.field_bytes"),
        W("roamauth.encoding:field_point", "encoding.field_point"),
    ]
    points += [W(f"roamauth.suite:CryptoSuite.{m}", f"suite.{m}") for m in SUITE_METHODS]
    points += [
        W("roamauth.suite:CryptoSuite.verify_over", "suite.verify_over",
          post=_verify_post),
        W("roamauth.suite:Signature.to_bytes", "suite.Signature.to_bytes"),
        W("roamauth.suite:Signature.from_bytes", "suite.Signature.from_bytes"),
        W("roamauth.suite:Certificate.to_bytes", "suite.Certificate.to_bytes"),
        W("roamauth.suite:Certificate.from_bytes", "suite.Certificate.from_bytes"),
        W("roamauth.suite:identity_from_label", "suite.identity_from_label"),
        W("roamauth.wire:serialize", "wire.serialize", post=_count_bytes("wire.bytes")),
        W("roamauth.wire:deserialize", "wire.deserialize"),
        W("roamauth.wire:nominal_bits", "wire.nominal_bits"),
        W("roamauth.instrument:record", "instrument.record"),
        W("roamauth.instrument:counting", "instrument.counting", context=True),
        W("roamauth.harness:run_session", "harness.run_session", post=_session_post),
        W("roamauth.harness:MessageBus.send", "harness.bus"),
        W("roamauth.harness:measure_costs", "harness.measure_costs"),
        W("roamauth.harness:build_proposed_world", "harness.world_build.proposed"),
        W("roamauth.harness:build_mun_world", "harness.world_build.mun"),
        W("roamauth.harness:honest_step", "harness.honest_step", context=True),
    ]
    for fn, party in PROPOSED_PARTIES.items():
        points.append(W(f"roamauth.proposed:{fn}", f"proposed.{party}.{fn}"))
    for fn, party in MUN_PARTIES.items():
        hooks = {"pre": _hash_count, "post": _ha_scan_post} if fn == "mun_ha_auth" else {}
        points.append(W(f"roamauth.mun:{fn}", f"mun.{party}.{fn}", **hooks))
    points.append(W("roamauth.attacks:run_attack", "attacks.game", namer=_game_name))
    points.append(W("roamauth.attacks:attack_offline_guessing",
                    "attacks.attack_offline_guessing", post=_guess_post))
    points += [W(f"roamauth.attacks:{fn}", f"attacks.{fn}") for fn in ATTACK_FUNCTIONS]
    return tuple(points)


WRAP_POINTS = _build_wrap_points()


def _make_wrapper(tracer: Tracer, fn, point: WrapPoint, site: str):
    name, namer, pre, post = point.name, point.namer, point.pre, point.post
    sites = tracer.sites

    if point.context:
        def wrapper(*args, **kwargs):
            sites[site] += 1
            frame = tracer.begin(name)
            try:
                cm = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            return _TimedContext(cm, tracer, name)
    else:
        def wrapper(*args, **kwargs):
            sites[site] += 1
            before = pre(tracer) if pre is not None else None
            frame = tracer.begin(namer(args) if namer is not None else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(frame, raised=True)
                raise
            tracer.end(frame)
            if post is not None:
                post(tracer, args, result, before)
            return result

    wrapper.perfbench_span = point.name
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


@dataclass
class Installation:
    """The patches one ``install`` made: (owner, attribute, original object,
    site, wrap point target), undone by ``restore``."""

    patches: list[tuple[object, str, object, str, str]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original, _site, _target in reversed(self.patches):
            setattr(owner, attr, original)


def _roamauth_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "roamauth" or name.startswith("roamauth."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every point, and every by-value binding of a module function."""
    inst = Installation()
    try:
        for point in WRAP_POINTS:
            module_name, _, path = point.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                site = f"{module_name}:{path}"
                tracer.sites[site] = 0
                wrapper = _make_wrapper(tracer, fn, point, site)
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
                inst.patches.append((owner, attr, raw, site, point.target))
                continue
            fn = getattr(module, path)
            if not isinstance(fn, FunctionType):
                raise TypeError(f"{point.target} is not a plain function")
            for mod in _roamauth_modules():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        site = f"{mod.__name__}:{attr}"
                        tracer.sites[site] = 0
                        setattr(mod, attr, _make_wrapper(tracer, fn, point, site))
                        inst.patches.append((mod, attr, fn, site, point.target))
    except BaseException:
        inst.restore()
        raise
    return inst


def leftover_wrappers() -> list[str]:
    """Bindings in the loaded ``roamauth`` modules and classes that still
    hold a wrapper; empty after a correct ``restore``."""
    found = []
    for mod in _roamauth_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{mod.__name__}:{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cval in vars(value).items():
                    inner = cval.__func__ if isinstance(cval, classmethod) else cval
                    if hasattr(inner, "perfbench_span"):
                        found.append(f"{mod.__name__}:{value.__name__}.{cattr}")
    return found
