"""Frozen value records: the small part of ``dataclasses`` the pipeline's
result classes use; and the two failure classes the exit code is read
from: ``InputError``, a refused user value (exit 1), and
``InternalInvariantError``, a failed internal check (exit 2).  Every
module of the pipeline imports this one, so each can raise either.

A record is a class whose annotated names are its fields, in order.
``@record`` gives it

- an ``__init__`` taking every field, positionally or by keyword, with
  no defaults, that then calls ``__post_init__`` when the class defines
  one;
- ``__eq__``, ``__hash__`` and ``__repr__`` over the fields, comparing
  field tuples of records of the same class;
- ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.
  ``__post_init__`` may still set an attribute with
  ``object.__setattr__``, and ``functools.cached_property`` still works,
  since it writes the instance ``__dict__`` directly.

An attribute that ``__post_init__`` sets and that is not annotated in
the class body is no field: ``__init__``, ``==``, ``hash`` and ``repr``
leave it out.

Why not ``dataclasses``: importing it loads ``inspect`` (10-19 ms), and
decorating the 13 result classes ``exec``s their generated methods
(about 12 ms), together about 70% of the package's cold import.  Here
only ``__init__`` is generated, from a two- or three-line ``exec`` per
class (about 0.1 ms); it fills the instance ``__dict__`` in one
``update``, which is faster than one ``object.__setattr__`` per field
and keeps attribute reads as fast.  The other methods are closures over
one ``operator.attrgetter`` of the fields.  That makes ``==`` and
``hash`` slower per call than inline tuples, but nothing hashes or
compares records on a hot path, and no cache of the package is keyed
on a record.
"""

from operator import attrgetter


class InputError(ValueError):
    """A check refused a value that a command handed to it unchanged from
    the user: argv, or a matrix file.  The CLI prints the message and
    exits 1; any other exception out of a command is a broken invariant
    and exits 2.  Being a ValueError, it changes nothing for a library
    caller that catches ValueError."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed (a Lefschetz-type count, a
    diagonalization identity, rotation propagation, a non-real eta, or a
    markup that does not match its diagonalization); the CLI exits with
    code 2 and prints the message as it is."""


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record of its annotated fields."""
    fields = list(cls.__annotations__)
    lines = [f"def __init__(self, {', '.join(fields)}):",
             f" self.__dict__.update({', '.join(f'{n}={n}' for n in fields)})"]
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    namespace = {}
    exec("\n".join(lines), namespace)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                f"{', '.join(f'{n}={getattr(self, n)!r}' for n in fields)})")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    key = attrgetter(*fields)
    for method in (namespace["__init__"], __repr__, __eq__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
