"""Value classes built from closures, with no generated source.

`valueclass` reads the fields a class body annotates, in order, and gives the
class what `dataclasses.dataclass(frozen=True)` would:
  * a constructor taking the fields by position or keyword, filling defaults
    and `default_factory` fields, then calling `__post_init__` if defined;
  * `__eq__` and `__hash__` over the fields, equal only to an instance of the
    same class;
  * `Name(field=value, ...)` repr text over the shown fields;
  * assignment and deletion refused with `FrozenInstanceError`.
A method the class body defines is kept.  Fields of a value base class come
first.

Every method is a closure over the field list, so no `exec` runs when the
engine is imported.  Fields live in `__slots__`; as a slot cannot share its
name with a class attribute, the class is rebuilt once with its annotated
defaults moved into the field list.  A hot class can hand-write its
`__init__` to set each field through `slot_setters`: one call per field, and
no argument binding.

Each root value class also has a `_memo` slot, which no field names and a
value subclass shares.  `memoised` keeps there the quantities derived from a
value: it creates the dict on first use and is the only code that reads or
writes it.  A value is built, copied, pickled and replaced from its fields
alone, so it starts with no memo, and equality, hash and repr never see one.
A result is stored only once its build returned, so a refusal is never
stored.
"""

from __future__ import annotations

import functools
from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to a field of a frozen value class."""


class Field:
    __slots__ = ("name", "default", "default_factory", "repr")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, repr=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.repr = repr

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
    `__post_init__` checks run again and the memo starts afresh."""
    for f in obj._value_fields:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def valueclass(cls):
    ns = dict(cls.__dict__)
    own = []
    for name in ns.get("__annotations__", {}):
        value = ns.pop(name, _MISSING)
        f = value if isinstance(value, Field) else Field(default=value)
        f.name = name
        own.append(f)
    root = not hasattr(cls, "_value_fields")
    every = getattr(cls, "_value_fields", ()) + tuple(own)
    ns["__slots__"] = tuple(f.name for f in own) + (("_memo",) if root else ())
    ns["_value_fields"] = every
    ns["__qualname__"] = cls.__qualname__
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    # defining __eq__ alone leaves __hash__ None in the body, which is not a choice
    explicit_hash = "__hash__" in ns and not (ns["__hash__"] is None and "__eq__" in ns)
    cls = type(cls)(cls.__name__, cls.__bases__, ns)

    names = [f.name for f in every]
    compared = attrgetter(*names)
    methods = {"__init__": _init(cls, every), "__eq__": _eq(compared),
               "__repr__": _repr([f.name for f in every if f.repr]),
               "__reduce__": _reduce(names),
               "__setattr__": _refuse("assign to"), "__delattr__": _refuse("delete")}
    for name, method in methods.items():
        if name not in ns:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if not explicit_hash:
        cls.__hash__ = lambda self: hash(compared(self))
    return cls


def _init(cls, every):
    setters = slot_setters(cls)
    post_init = getattr(cls, "__post_init__", None) is not None
    where = f"{cls.__qualname__}()"

    def bind(args, kwargs):
        if len(args) > len(every):
            raise TypeError(f"{where} takes {len(every)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for f in every[:len(args)]:
            if f.name in kwargs:
                raise TypeError(f"{where} got multiple values for argument {f.name!r}")
        for f in every[len(args):]:
            value = kwargs.pop(f.name) if f.name in kwargs else f.initial()
            if value is _MISSING:
                raise TypeError(f"{where} missing required argument {f.name!r}")
            values.append(value)
        if kwargs:
            raise TypeError(f"{where} got an unexpected keyword argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(every):
            args = bind(args, kwargs)
        for set_, value in zip(setters, args):
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


def _reduce(names):
    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in names)

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
        try:
            memo = obj._memo
        except AttributeError:
            memo = {}
            object.__setattr__(obj, "_memo", memo)
        out = memo.get(key, _MISSING)
        if out is _MISSING:
            out = memo[key] = build(obj, *args)
        return out

    return cached
