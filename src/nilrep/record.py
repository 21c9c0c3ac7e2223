"""Frozen value records: the one class decorator behind every value type.

@record reads a class's fields from its annotations (a record base's
fields first) and installs closures over them: __init__ (positional and
keyword arguments with defaults, then __post_init__ when the class has
one), a class-exact __eq__ and a __hash__ over the init fields' values
(operator.attrgetter), a Name(field=value, ...) __repr__ unless the
class writes its own, and a __setattr__ and __delattr__ that refuse.  No
code is generated, so decorating a class costs a few dictionary
operations.  A field whose default is DERIVED is left out of __init__;
__post_init__ sets it with object.__setattr__, and since it is a
function of the init fields, equality and hashing leave it out.
cached_property works, since it writes to the instance __dict__
directly.

>>> @record
... class Pair:
...     a: int
...     b: int = 0
>>> Pair(1), Pair(1) == Pair(a=1, b=0), replace(Pair(1), b=2)
(Pair(a=1, b=0), True, Pair(a=1, b=2))
"""

from __future__ import annotations

from operator import attrgetter

# the default of a field that __post_init__ sets
DERIVED = object()
_REQUIRED = object()
# writes past the refusing __setattr__, keeping the instance's compact
# attribute storage (writing to __dict__ would materialize a dict)
_setattr = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def record(cls):
    """Make cls a frozen value record; see the module docstring."""
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(base.__dict__.get("__record_fields__", {}))
    for name in cls.__annotations__:
        fields[name] = cls.__dict__.get(name, _REQUIRED)
        if fields[name] is DERIVED:
            delattr(cls, name)
    names = tuple(fields)
    init = tuple(name for name in names if fields[name] is not DERIVED)
    signature = (init, tuple(fields[name] for name in init))
    has_post_init = hasattr(cls, "__post_init__")

    # A call that passes every field of a one- or two-field record by
    # position (GradedPoly in a Molien sum, Factor, AbelianInvariants)
    # sets them without _assign's loop, whose overhead would cost as much
    # again.
    first, second, *_ = init + (None, None)
    if len(init) == 1:
        def __init__(self, *args, **kwargs):
            if len(args) == 1 and not kwargs:
                _setattr(self, first, args[0])
            else:
                _assign(self, signature, args, kwargs)
            if has_post_init:
                self.__post_init__()   # looked up per call, as patched
    elif len(init) == 2:
        def __init__(self, *args, **kwargs):
            if len(args) == 2 and not kwargs:
                _setattr(self, first, args[0])
                _setattr(self, second, args[1])
            else:
                _assign(self, signature, args, kwargs)
            if has_post_init:
                self.__post_init__()
    else:
        def __init__(self, *args, **kwargs):
            _assign(self, signature, args, kwargs)
            if has_post_init:
                self.__post_init__()

    get = attrgetter(*init)
    if len(init) == 1:   # attrgetter returns a lone field bare
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

    cls.__record_fields__ = fields
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__setattr__ = _refuse
    cls.__delattr__ = _refuse
    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = "%s.%s" % (cls.__qualname__, method.__name__)
    return cls


def _assign(self, signature, args, kwargs) -> None:
    """Set every init field from the arguments: the positional ones
    first, then each remaining field from its keyword or its default.
    signature is (init fields, their defaults or _REQUIRED)."""
    init, defaults = signature
    if len(args) > len(init):
        raise TypeError("%s() takes %d fields, not %d"
                        % (type(self).__name__, len(init), len(args)))
    for name, value in zip(init, args):
        _setattr(self, name, value)
    for name, default in zip(init[len(args):], defaults[len(args):]):
        value = kwargs.pop(name, default)
        if value is _REQUIRED:
            raise TypeError("%s() missing field %r"
                            % (type(self).__name__, name))
        _setattr(self, name, value)
    if kwargs:
        raise TypeError("%s() got unknown or repeated fields %s"
                        % (type(self).__name__, ", ".join(sorted(kwargs))))


def _refuse(self, name, *value):
    raise FrozenInstanceError("cannot assign to or delete field %r of a "
                              "frozen record" % name)


def fields(obj) -> tuple[str, ...]:
    """The field names of a record or record class, in __init__ order
    with derived fields in place."""
    try:
        return tuple(obj.__record_fields__)
    except AttributeError:
        raise TypeError("not a record: %r" % (obj,)) from None


def replace(obj, **changes):
    """A new record of obj's class with the given fields changed; the
    class's __post_init__ checks the result.  Derived fields cannot be
    changed: __post_init__ recomputes them."""
    cls = type(obj)
    kwargs = {name: getattr(obj, name)
              for name, default in cls.__record_fields__.items()
              if default is not DERIVED}
    kwargs.update(changes)
    return cls(**kwargs)
