"""Value semantics of every record class (the wire messages are covered in
test_wire.py).

Each record is built from made-up field values, which need not be valid
protocol values: by position and by keyword, refusing a missing, an extra
or a doubled field, with its defaults (a mutable default is fresh for each
instance), equal by type and fields, hashed and refusing assignment when
frozen, unhashable and assignable when not, and copied with changes by
`replace`.
"""

import inspect
from typing import get_type_hints

import pytest

from roamauth import attacks, cli, curve, encoding, harness, instrument, mun, proposed, suite, wire
from roamauth.record import Record

_OPS = "xor hash mul mul_pre esym dsym gsign vsign kdf mac vcert"

# (class, frozen, field names in order, defaults of the trailing fields)
RECORDS = [
    (curve.Point, True, "x y", {}),
    (curve.CurveParams, True, "name p a b gx gy n", {}),
    (suite.Signature, True, "r s", {}),
    (suite.KeyPair, True, "priv pub", {}),
    (suite.Certificate, True, "subject_id public_key signature", {}),
    (instrument.OpCounts, False, _OPS, {name: 0 for name in _OPS.split()}),
    (proposed.HAKeyMaterial, True, "home_id master_secret dh signer cert ca_pub", {}),
    (proposed.FAKeyMaterial, True, "foreign_id signer cert ca_pub", {}),
    (proposed.SmartCard, True, "masked_key login_verifier home_dh_pub home_id card_salt",
     {"card_salt": None}),
    (proposed.MUState, True, "user_id password card", {}),
    (proposed.UserSession, False, "eph_priv user_eph id_key", {}),
    (proposed.ForeignSession, False, "eph_priv foreign_eph sym_key user_eph home_id", {}),
    (proposed.SessionKey, True, "value epoch", {"epoch": 0}),
    (mun.MunHAState, False, "home_id registry aliases", {"registry": {}, "aliases": {}}),
    (mun.MunFAState, True, "foreign_id", {}),
    (mun.MunCredentials, True, "user_id user_alias password_digest home_nonce home_id", {}),
    (mun.MunFASession, False, "foreign_nonce home_nonce user_alias eph_priv", {"eph_priv": None}),
    (mun.MunChannel, True, "key shared_point", {}),
    (harness.ScenarioSpec, True, "scheme scenario seed curve update_rounds",
     {"seed": 0, "curve": "p256", "update_rounds": 1}),
    (harness.TranscriptEntry, True, "sender receiver kind payload bits phase secure",
     {"phase": "main", "secure": False}),
    (harness.Transcript, False, "scheme scenario curve entries", {"entries": []}),
    (harness.ProposedWorld, False, "ca ha fa mu", {}),
    (harness.MunWorld, False, "ha fa cred", {}),
    (harness.CostReport, False, "scheme scenario curve rule rounds phase_rounds mobile_bits "
     "paper_bits paper_rounds message_bits op_counts paper_ops notes", {}),
    (harness.SessionResult, False, "transcript report outcome", {}),
    (harness.MatrixReport, False, "rows notes", {}),
    (attacks.AttackOutcome, False, "attack scheme succeeded evidence detail", {}),
    (attacks.AdversaryView, False, "transcripts public_material stolen_card "
     "insider_registration long_term_secrets cdl_oracle",
     {"transcripts": [], "public_material": {}, "stolen_card": None,
      "insider_registration": None, "long_term_secrets": None, "cdl_oracle": None}),
    (attacks.AttackRun, False, "adversary_key honest_key completed detail extra", {"extra": {}}),
    (attacks.PasswordVerifier, False, "check missing", {"missing": ()}),
]
CASES = [pytest.param(cls, frozen, tuple(names.split()), defaults, id=cls.__name__)
         for cls, frozen, names, defaults in RECORDS]


def field_names(cls) -> tuple:
    return cls._fields


def default_names(cls) -> set:
    return set(cls._field_defaults)


def replace(record, **changes):
    return record.replace(**changes)


def is_record_class(obj) -> bool:
    return (inspect.isclass(obj) and issubclass(obj, Record) and obj is not Record
            and not issubclass(obj, wire.Message))


def values(names, base=10) -> dict:
    """Made-up values, distinct per field, hashable and printable in hex."""
    return {name: base + i for i, name in enumerate(names)}


def test_every_record_class_is_covered():
    found = {obj for module in (attacks, cli, curve, encoding, harness, instrument, mun,
                                proposed, suite, wire)
             for obj in vars(module).values() if is_record_class(obj)}
    assert found == {cls for cls, *_ in RECORDS}
    assert len(RECORDS) == 30


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_fields_and_defaults(cls, frozen, names, defaults):
    assert field_names(cls) == names
    assert default_names(cls) == set(defaults)
    assert names[len(names) - len(defaults):] == tuple(defaults)


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_built_by_position_or_keyword(cls, frozen, names, defaults):
    given = values(names)
    by_position, by_keyword = cls(*given.values()), cls(**given)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in names} == given
    assert by_position == by_keyword


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_a_missing_extra_or_doubled_field_is_refused(cls, frozen, names, defaults):
    given = values(names)
    for name in names:
        if name not in defaults:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in given.items() if k != name})
    for args, kwargs in (([*given.values(), 1], {}), ([], {**given, "no_such_field": 1}),
                         ([given[names[0]]], given)):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_defaults_and_fresh_mutable_defaults(cls, frozen, names, defaults):
    required = [v for k, v in values(names).items() if k not in defaults]
    first, second = cls(*required), cls(*required)
    assert {name: getattr(first, name) for name in defaults} == defaults
    for name, default in defaults.items():
        if isinstance(default, (list, dict)):
            assert getattr(first, name) is not getattr(second, name)


def test_adversary_view_transcripts_are_not_shared():
    first, second = attacks.AdversaryView(), attacks.AdversaryView()
    first.transcripts.append("t")
    assert second.transcripts == [] and first.transcripts == ["t"]


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_equal_by_type_and_fields(cls, frozen, names, defaults):
    given = values(names)
    record = cls(**given)
    assert record == cls(**given) and not record != cls(**given)
    for name in names:
        other = cls(**{**given, name: given[name] + 100})
        assert record != other and not record == other
    assert record != tuple(given.values())
    assert record.__eq__(object()) is NotImplemented
    other_cls = next(c for c, *_ in RECORDS if c is not cls)
    assert record != other_cls(*values(field_names(other_cls)).values())


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_frozen_records_hash_and_refuse_assignment(cls, frozen, names, defaults):
    given = values(names)
    record, name = cls(**given), names[0]
    if frozen:
        assert hash(record) == hash(cls(**given))
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == given[name]
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, 0)
        assert getattr(record, name) == 0 and record != cls(**given)


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_replace_makes_a_changed_copy(cls, frozen, names, defaults):
    given = values(names)
    record = cls(**given)
    for name in names:
        changed = replace(record, **{name: -1})
        assert changed == cls(**{**given, name: -1}) and changed is not record
    assert record == cls(**given)
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)


@pytest.mark.parametrize("cls,frozen,names,defaults", CASES)
def test_repr_names_the_class_and_fields(cls, frozen, names, defaults):
    given = values(names)
    if cls is curve.Point:
        assert repr(cls(**given)) == "Point(0xa, 0xb)"
        assert repr(curve.INFINITY) == "Point(infinity)"
        return
    fields = ", ".join(f"{name}={value!r}" for name, value in given.items())
    assert repr(cls(**given)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", [attacks.AttackOutcome, harness.ScenarioSpec])
def test_type_hints_of_the_loaded_records_are_exactly_their_fields(cls):
    # the attack outcome and scenario file loaders check records against these
    assert tuple(get_type_hints(cls)) == field_names(cls)
