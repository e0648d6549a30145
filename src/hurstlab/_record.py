"""Frozen records, the one base class of hurstlab's value types.

A record class lists its fields as annotations, in order, and gives a
field's default as a class attribute. An instance is built from the
fields by position or keyword, then the class's ``__post_init__`` runs if
it has one. Assignment and deletion raise AttributeError, so a
``__post_init__`` that normalizes a field writes it with
``object.__setattr__``. Records of one class are equal, and hash alike,
when their field values are; the repr is ``Name(field=value!r, ...)``.
The methods are shared by every record, not generated per class, so
defining one costs no code generation when its module is imported.
"""


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Every field's value, in order, from a call's arguments."""
        call = f"{cls.__qualname__}()"
        if len(args) > len(cls._fields):
            raise TypeError(f"{call} takes {len(cls._fields)} fields but "
                            f"{len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{call} got an unexpected field {name!r}")
            if name in values:
                raise TypeError(f"{call} got multiple values for {name!r}")
            values[name] = value
        values = {**cls._defaults, **values}
        missing = [name for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{call} missing field {missing[0]!r}")
        return [values[name] for name in cls._fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
