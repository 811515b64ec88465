"""One value-record base for the package's records and wire messages.

A record class lists its fields as annotated class attributes, in order, with
optional defaults (`Factory` for a fresh one per instance), and may say
`frozen=True` in its class statement.  The subclass hook reads the annotations
once; the first construction of a class compiles its `__init__` from them.
Records are built by position or keyword, equal by type and fields, and copied
with changes by `replace`; a frozen one hashes by its fields and refuses
assignment.  `_fields` and `_field_defaults` name the fields and defaults.
A field may not take the name of a field or other attribute of a base class
(`_fields`, `replace`, `__init__`), which an instance would shadow.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Factory:
    """A field default made afresh for each instance: `entries: list = Factory(list)`."""

    def __init__(self, make):
        self.make = make


class Record:
    """Base of every record; each subclass's `__init__` sets its fields in order."""

    _fields = ()
    _field_defaults = {}
    _values = None

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        for name in own:
            owner = next((base for base in cls.__mro__[1:]
                          if name in vars(base) or name in getattr(base, "_fields", ())), None)
            if owner:
                raise TypeError(f"{cls.__qualname__}: field {name!r} would hide "
                                f"{owner.__qualname__}.{name}")
        cls._fields = cls._fields + own
        cls._field_defaults = {**cls._field_defaults,
                               **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        for name in own:
            if type(vars(cls).get(name)) is Factory:
                delattr(cls, name)
        # the field values: a tuple, or the one value of a one-field record
        cls._values = attrgetter(*cls._fields) if cls._fields else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            if vars(cls).get("__hash__") is None:
                cls.__hash__ = Record._hash
        if "__init__" not in vars(cls):
            cls.__init__ = _first_init(cls)

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

    def replace(self, /, **changes):
        """A copy with `changes` applied; an unknown field raises `TypeError`."""
        return type(self)(**{**self._asdict(), **changes})


def _first_init(cls):
    """The `__init__` of `cls` until its first construction, which replaces it
    with the one `_compile_init` writes (compiling at import slows start-up)."""
    def __init__(self, *args, **kwargs):
        cls.__init__ = _compile_init(cls)
        cls.__init__(self, *args, **kwargs)
    return __init__


def _compile_init(cls):
    """`def __init__(self, <fields>=<defaults>)` that sets the fields in order,
    through `__dict__` past a frozen record's refusing `__setattr__`.  The
    source holds only field names; each default is a global, and a `Factory`
    one is made afresh when its field is not given.  The other names start
    with one more underscore than any field name."""
    names, defaults = cls._fields, cls._field_defaults
    pre = "_" * (1 + max((len(name) - len(name.lstrip("_")) for name in names), default=0))
    this, scope, params, values = pre + "self", {}, [], []
    for i, name in enumerate(names):
        value = name
        if name in defaults:
            scope[f"{pre}{i}"] = default = defaults[name]
            params.append(f"{name}={pre}{i}")
            if type(default) is Factory:
                value = f"({pre}{i}.make() if {name} is {pre}{i} else {name})"
        else:
            params.append(name)
        values.append(value)
    if cls.__setattr__ is Record._refuse:
        # one update, not an item per field: on CPython 3.11 and 3.12 reading
        # the fields of an instance whose `__dict__` was filled item by item
        # costs twice as much
        body = [f"{this}.__dict__.update({', '.join(f'{n}={v}' for n, v in zip(names, values))})"]
    else:
        body = [f"{this}.{name} = {value}" for name, value in zip(names, values)]
    source = f"def __init__({', '.join([this, *params])}):\n    " + "\n    ".join(body or ["pass"])
    exec(compile(source, f"<{cls.__qualname__}.__init__>", "exec"), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
