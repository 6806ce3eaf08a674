"""Read-only records that, unlike dataclasses, generate no code when defined: each
lists its attributes in ``__slots__`` and checks and stores them in its own ``__init__``."""

import numpy as np


class Record:
    """A record is read-only, arrays in tuples included, also after copy and pickle: set
    once, in ``__init__``, an attribute raises ``AttributeError`` when set or deleted and
    an array refuses a write; ``==`` and ``hash`` by identity, as array holders need."""

    __slots__ = ()

    def _init(self, values: dict):
        """Store each slot from ``values``, ``__init__``'s ``locals()``, arrays read-only."""
        for name in self.__slots__:
            stack = [value := values[name]]
            while stack:
                if isinstance(item := stack.pop(), np.ndarray):
                    item.setflags(write=False)
                elif isinstance(item, tuple):
                    stack.extend(item)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of {type(self).__name__}")

    def __setstate__(self, state):   # copy and pickle: state is (None, {slot: value})
        self._init(state[1])

    def __repr__(self):
        fields = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


class ValueRecord(Record):
    """A record whose ``==`` and ``hash`` are those of its slot values, in order."""

    __slots__ = ()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    to_json = _asdict

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))
