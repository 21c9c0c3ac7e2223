"""Frozen value records: the one class decorator behind every value type.

@record reads a class's fields from its annotations and installs: an
__init__ written as source for the class and compiled once, as
dataclasses does (the fields as parameters with their defaults, then
__post_init__ when the class has one), a class-exact __eq__ and a
__hash__ over the fields' values (operator.attrgetter), a
Name(field=value, ...) __repr__, and a __setattr__ and __delattr__ that
refuse.  A record's fields are exactly its __init__ parameters; a value
computed from them is a functools.cached_property, which works since it
writes to the instance __dict__ directly, and which equality, hashing
and the repr leave out.

>>> @record
... class Pair:
...     a: int
...     b: int = 0
>>> Pair(1), Pair(1) == Pair(a=1, b=0), replace(Pair(1), b=2)
(Pair(a=1, b=0), True, Pair(a=1, b=2))
"""

from __future__ import annotations

from operator import attrgetter

_REQUIRED = object()
# writes past the refusing __setattr__, keeping the instance's compact
# attribute storage (writing to __dict__ would materialize a dict)
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def record(cls):
    """Make cls a frozen value record; see the module docstring."""
    fields = {name: cls.__dict__.get(name, _REQUIRED)
              for name in cls.__annotations__}
    names = tuple(fields)
    __init__ = _make_init(names, fields, hasattr(cls, "__post_init__"))

    get = attrgetter(*names)
    if len(names) == 1:   # attrgetter returns a lone field bare
        def __hash__(self):
            return hash((get(self),))
    else:
        def __hash__(self):
            return hash(get(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return get(self) == get(other)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in names))

    cls.__record_fields__ = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _refuse
    cls.__delattr__ = _refuse
    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = "%s.%s" % (cls.__qualname__, method.__name__)
    return cls


def _make_init(init, fields, post_init):
    """The __init__ of a record with these init fields, compiled from
    source: each field a parameter, a default bound in the def line, and
    __post_init__ looked up per call (tests patch it)."""
    defaults = {"_default_" + name: fields[name] for name in init
                if fields[name] is not _REQUIRED}
    params = [name if fields[name] is _REQUIRED else
              "%s=_default_%s" % (name, name) for name in init]
    body = ["_setattr(self, %r, %s)" % (name, name) for name in init]
    if post_init:
        body.append("self.__post_init__()")
    source = "def __init__(%s):\n    %s\n" % (", ".join(["self"] + params),
                                           "\n    ".join(body))
    namespace = {"_setattr": _setattr, **defaults}
    exec(source, namespace)
    return namespace["__init__"]


def _refuse(self, name, *value):
    raise FrozenInstanceError("cannot assign to or delete field %r of a "
                              "frozen record" % name)


def fields(obj) -> tuple[str, ...]:
    """The field names of a record or record class: the parameters of its
    __init__, in order."""
    try:
        return obj.__record_fields__
    except AttributeError:
        raise TypeError("not a record: %r" % (obj,)) from None


def replace(obj, **changes):
    """A new record of obj's class with the given fields changed; the
    class's __post_init__ checks the result."""
    kwargs = {name: getattr(obj, name) for name in obj.__record_fields__}
    kwargs.update(changes)
    return type(obj)(**kwargs)
