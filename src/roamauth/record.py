"""One value-record base for the package's records and wire messages.

A record class lists its fields as annotated class attributes, in order, with
optional defaults (`Factory` for a fresh one per instance), and may say
`frozen=True` in its class statement.  The subclass hook reads the annotations
once and writes no code.  Records are built by position or keyword, equal by
type and fields, and copied with changes by `replace`; a frozen one hashes by
its fields and refuses assignment.  `_fields` and `_field_defaults` name the
fields and defaults.  A class built at least once per session writes its own,
faster, `__init__`.
"""

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Factory:
    """A field default made afresh for each instance: `entries: list = Factory(list)`."""

    def __init__(self, make):
        self.make = make


class Record:
    """Base of every record; the shared `__init__` fills `__dict__` in field order."""

    _fields = ()
    _field_defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._field_defaults = {**cls._field_defaults,
                               **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        for name in own:
            if type(vars(cls).get(name)) is Factory:
                delattr(cls, name)
        cls._defaults = tuple(cls._field_defaults.get(name, _MISSING) for name in cls._fields)
        # the field values: a tuple, or the one value of a one-field record
        cls._values = attrgetter(*cls._fields) if cls._fields else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            if vars(cls).get("__hash__") is None:
                cls.__hash__ = Record._hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            given = len(args)  # pop what the keywords give; what is left is unknown or doubled
            args = (*args, *map(kwargs.pop, names[given:], self._defaults[given:]))
            if kwargs or len(args) != len(names) or any(value is _MISSING for value in args):
                missing = [name for name, value in zip(names, args) if value is _MISSING]
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; got "
                                f"{given} by position, {sorted(kwargs)} left over, {missing} missing")
            if Factory in map(type, args):
                args = [value.make() if type(value) is Factory else value for value in args]
        self.__dict__.update(zip(names, args))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    __hash__ = None  # a frozen subclass hashes by its fields

    def _hash(self):
        return hash(self._values(self))

    def _refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def replace(self, **changes):
        """A copy with `changes` applied; an unknown field raises `TypeError`."""
        return type(self)(**{**self._asdict(), **changes})
