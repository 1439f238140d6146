"""The immutable base of the library's records."""


class Record:
    """A value record: ``__init__`` writes each attribute into ``__dict__``,
    and assignment or deletion raises ``AttributeError``.  ``_fields``, by
    default the ``__init__`` parameters, give ``==`` (within one class), the
    hash and the repr ``Name(field=value, ...)``; other attributes, such as
    ``cached_property`` views, take no part.  Records pickle by ``__dict__``.
    """

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, *value):
        raise AttributeError(f"record field {name!r} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{self.__class__.__qualname__}({shown})"
