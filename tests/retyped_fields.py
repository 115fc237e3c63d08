"""The retyped-field harness shared by the state-document loader tests.

Each member of a real document, in turn, becomes a value of another JSON
type — floats include NaN and the infinities, which ``json.loads``
accepts, and integers include ones no float holds — and a number
becomes one of those out-of-range numbers too.  A loader facing such a
document may refuse it only with its typed error.

The properties run without Hypothesis's shrink phase (``NO_SHRINK``): an
example draws one value per field, a couple of hundred for a gateway
document, and shrinking such a failure takes minutes.  Each case instead
names its field path and drawn value in any failure raised inside it.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager

from hypothesis import Phase
from hypothesis import strategies as st

#: The Hypothesis phases of a retyped-field property: all but shrinking.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
#: Replacement values by kind: a value of each JSON type, or a number no
#: loader can take at face value (``1e400`` in a document parses as
#: ``inf``).
_REPLACEMENTS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.one_of(st.integers(), st.floats()),
    "string": st.text(max_size=6),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
    "out-of-range number": st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(min_value=2**1024, max_value=2**1100),
        st.integers(min_value=-(2**1100), max_value=-(2**1024)),
    ),
}


def _fields(doc, path=()):
    """Every member path of ``doc``: each object key at any depth, and
    the first element of each non-empty array."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = [(0, doc[0])]
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@contextmanager
def _case(field, value):
    """Re-raise any failure inside the block as one naming the field."""
    try:
        yield
    except Exception as exc:
        raise AssertionError(
            f"field {field} retyped to {reprlib.repr(value)}: {exc!r}"
        ) from exc


def retyped(doc, data):
    """Yield ``(case, copy)`` for every member path of ``doc``, where
    ``copy`` is ``doc`` with that member replaced by a value of another
    JSON type, or an out-of-range number, drawn from ``data`` (a
    Hypothesis ``st.data()``).  ``case`` is a context manager: any
    exception raised inside ``with case:`` fails the test with the field
    path and the drawn value."""
    for path, value in _fields(doc):
        field = ".".join(map(str, path))
        other = data.draw(
            st.sampled_from(sorted(set(_REPLACEMENTS) - {_json_type(value)})).flatmap(
                _REPLACEMENTS.__getitem__
            ),
            label=field,
        )
        yield _case(field, other), _replaced(doc, path, other)
