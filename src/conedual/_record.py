"""The frozen record base of the package's small result types.

A subclass lists its fields as class annotations, in order.  It then has
what ``@dataclass(frozen=True)`` would give it, without importing
``dataclasses`` and executing generated methods for each class when the
module loads:

* construction by position or keyword, then ``__post_init__``;
* ``==`` only between records of the same class, on the field tuple;
* ``hash`` equal to the hash of the field tuple;
* the dataclass ``repr``, ``Name(field=value, ...)``;
* ``AttributeError`` on any assignment or deletion.

The fields live in the instance ``__dict__``, so ``__post_init__`` can
normalise one with ``object.__setattr__``.
"""


class Record:
    """Base of a frozen record; ``_fields`` names the fields in order."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} arguments, "
                            f"{len(args)} were given")
        values = self.__dict__
        values.update(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self):
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        values = self.__dict__
        inner = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
