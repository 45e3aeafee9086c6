"""Value classes built from closures, with no generated source.

`valueclass` reads the fields a class body annotates, in order, and gives the
class what `dataclasses.dataclass(frozen=True)` would:
  * a constructor taking the fields by position or keyword, filling defaults
    and `default_factory` fields, then calling `__post_init__` if defined;
  * `__eq__` and `__hash__` over the compared fields, equal only to an
    instance of the same class;
  * `Name(field=value, ...)` repr text over the shown fields;
  * assignment and deletion refused with `FrozenInstanceError`.
`valueclass(frozen=False)` gives a mutable record with no hash.  A method the
class body defines is kept.  Fields of a value base class come first.

Every method is a closure over the field list, so no `exec` runs when the
engine is imported.  Fields live in `__slots__`; as a slot cannot share its
name with a class attribute, the class is rebuilt once with its annotated
defaults moved into the field list.  A hot class can hand-write its
`__init__` to set each field through `slot_setters`: one call per field, and
no argument binding.

`memoised` keeps a quantity derived from a value in its `_memo`, a field
declared `field(default_factory=dict, init=False, repr=False, compare=False)`:
it takes no part in equality, hash or repr, and `replace` starts it afresh.
Only `memoised` touches `_memo`, and it stores a result only once the build
returned, so a refusal is never stored.
"""

from __future__ import annotations

import functools
from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to a field of a frozen value class."""


class Field:
    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, init=True, repr=True,
                 compare=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare

    def initial(self):
        """The value of an unpassed field, or _MISSING when it is required."""
        if self.default_factory is not _MISSING:
            return self.default_factory()
        return self.default


field = Field


def slot_setters(cls) -> tuple:
    """The `__set__` of each field's slot, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in cls._value_fields)


def replace(obj, **changes):
    """A new instance with `changes`, built by the constructor, so that
    `__post_init__` checks run again and init=False fields start afresh."""
    for f in obj._value_fields:
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name!r} is not set by the constructor")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def valueclass(cls=None, /, *, frozen: bool = True):
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    ns = dict(cls.__dict__)
    own = []
    for name in ns.get("__annotations__", {}):
        value = ns.pop(name, _MISSING)
        f = value if isinstance(value, Field) else Field(default=value)
        f.name = name
        own.append(f)
    every = getattr(cls, "_value_fields", ()) + tuple(own)
    ns["__slots__"] = tuple(f.name for f in own)
    ns["_value_fields"] = every
    ns["__qualname__"] = cls.__qualname__
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    # defining __eq__ alone leaves __hash__ None in the body, which is not a choice
    explicit_hash = "__hash__" in ns and not (ns["__hash__"] is None and "__eq__" in ns)
    cls = type(cls)(cls.__name__, cls.__bases__, ns)

    compared = attrgetter(*(f.name for f in every if f.compare))
    methods = {"__init__": _init(cls, every), "__eq__": _eq(compared),
               "__repr__": _repr([f.name for f in every if f.repr]),
               "__reduce__": _reduce([f.name for f in every if f.init])}
    if frozen:
        methods["__setattr__"] = _refuse("assign to")
        methods["__delattr__"] = _refuse("delete")
    for name, method in methods.items():
        if name not in ns:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if not explicit_hash:
        cls.__hash__ = (lambda self: hash(compared(self))) if frozen else None
    return cls


def _init(cls, every):
    pairs = list(zip(every, slot_setters(cls)))
    given = [f for f, _ in pairs if f.init]
    given_setters = [set_ for f, set_ in pairs if f.init]
    later = [(f, set_) for f, set_ in pairs if not f.init]
    post_init = getattr(cls, "__post_init__", None) is not None
    where = f"{cls.__qualname__}()"

    def bind(args, kwargs):
        if len(args) > len(given):
            raise TypeError(f"{where} takes {len(given)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for f in given[:len(args)]:
            if f.name in kwargs:
                raise TypeError(f"{where} got multiple values for argument {f.name!r}")
        for f in given[len(args):]:
            value = kwargs.pop(f.name) if f.name in kwargs else f.initial()
            if value is _MISSING:
                raise TypeError(f"{where} missing required argument {f.name!r}")
            values.append(value)
        if kwargs:
            raise TypeError(f"{where} got an unexpected keyword argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(given):
            args = bind(args, kwargs)
        for set_, value in zip(given_setters, args):
            set_(self, value)
        for f, set_ in later:
            value = f.initial()
            if value is not _MISSING:
                set_(self, value)
        if post_init:
            self.__post_init__()

    return __init__


def _eq(compared):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    return __eq__


def _repr(shown):
    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({inner})"

    return __repr__


def _reduce(given):
    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in given)

    return __reduce__


def _refuse(verb):
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    return refuse


def memoised(build):
    """`build(obj, *args)`, run once per object and positional arguments; the
    result is kept in `obj._memo` under `(build.__name__, *args)`."""
    name = build.__name__

    @functools.wraps(build)
    def cached(obj, *args):
        key = (name, *args)
        out = obj._memo.get(key, _MISSING)
        if out is _MISSING:
            out = obj._memo[key] = build(obj, *args)
        return out

    return cached
