"""The wire codec: JSON forms described by tables of rows.

Everything this package puts on a wire is framed here: the ``spec/v3``
experiment specs and results (:mod:`repro.fleet.wire`), the ``v: 1``
packets (:mod:`repro.core.messages`) and the whiteboard's drawops
(:mod:`repro.wb.drawops`). A wired class is a :func:`record` — a tuple
of ``(attribute, wire key, codec)`` rows built from a handful of
combinators (:data:`INT` … :func:`union`) — and :func:`_encode` /
:func:`_decode` are the only code that builds or takes apart a JSON
object: a class is framed once, in its rows. What every table gets:

* **Explicit.** A record's rows name exactly its class's fields or the
  record is not built (:func:`_check_rows`), so a field added to a class
  but not to its rows stops the module that frames it from importing.
* **Closed.** ``_decode`` requires every row's key — or, for an
  :func:`omittable` row, decodes its default in place of an absent one —
  and rejects any other.
* **Exact.** Scalars are checked by exact JSON type: ``true`` is not an
  integer and ``"0"`` is not a number.
* **One error.** Whatever the JSON value, a refusal is a
  :class:`WireFormatError` naming the path to the node it refused
  (``payload: echoes: expected a number, got 't1'``).

The tables live beside the classes they frame; this module imports
nothing from :mod:`repro`.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Type, TypeVar


class WireFormatError(ValueError):
    """A value with no wire form, or wire input that is not one."""


_REQUIRED: Any = object()


class Codec(NamedTuple):
    """``encode(value) -> JSON`` and ``decode(JSON) -> value``; either
    raises :class:`WireFormatError` on a value it has no form for.
    ``omitted`` is what a record decodes when the row's key is absent
    (set by :func:`omittable`; by default the key is required)."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    omitted: Any = _REQUIRED


#: ``(attribute, wire key, codec)``. A None attribute is a :func:`tag`,
#: or a key computed from the whole object: its codec encodes the object,
#: and what it decodes is checked and dropped.
Row = Tuple[Optional[str], str, Codec]
Rows = Tuple[Row, ...]
T = TypeVar("T")


def dumps_canonical(payload: Any) -> str:
    """The canonical JSON rendering: sorted keys, no whitespace.

    Fingerprints and canvas digests hash this rendering and frames carry
    it, so it must stay byte-stable for a given payload across processes
    and Python versions.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _same(value: Any) -> Any:
    return value


def _expects(what: str, *kinds: type) -> Callable[[Any], Any]:
    def check(wire: Any) -> Any:
        # Exact JSON types: isinstance() would call a bool an int.
        if type(wire) in kinds:
            return wire
        raise WireFormatError(f"expected {what}, got {wire!r}")

    return check


_scalar = _expects("a scalar (bool/int/float/str/null)",
                   bool, int, float, str, type(None))
_number = _expects("a number", int, float)
_object = _expects("a JSON object", dict)
_list = _expects("a list", list)


def _real(wire: Any) -> Any:
    float(_number(wire))  # OverflowError: an int no float can hold
    return wire


INT = Codec(_same, _expects("an integer", int))
# A conversion's own ValueError / OverflowError (``float(10**400)``,
# ``int("x")`` in int_keyed) is reported by _decode like any other.
FLOAT = Codec(_same, lambda wire: float(_number(wire)))
#: A number that rides as sent: an int stays an int, so a decoded value
#: re-encodes to the bytes it came from.
NUMBER = Codec(_same, _real)
STR = Codec(_same, _expects("a string", str))
BOOL = Codec(_same, _expects("a boolean", bool))
#: Config knobs: checked in both directions, so a future non-scalar
#: knob must get a codec of its own deliberately.
SCALAR = Codec(_scalar, _scalar)
#: Any JSON object, copied.
OBJECT = Codec(dict, lambda wire: dict(_object(wire)))
#: Any JSON value, carried as is: application data this codec does not
#: frame.
ANY = Codec(_same, _same)


def tag(value: Any, what: str) -> Codec:
    """A constant every payload of the class carries; no attribute."""

    def decode(wire: Any) -> None:
        # Exact type too: ``true`` is not version 1.
        if type(wire) is not type(value) or wire != value:
            raise WireFormatError(f"unsupported {what} {wire!r} "
                                  f"(this build speaks {value!r})")

    return Codec(lambda _: value, decode)


def omittable(item: Codec, default: Any) -> Codec:
    """``item``, whose key a payload may leave out: a record then decodes
    the JSON ``default`` in its place. Encoding always writes the key."""
    return Codec(item.encode, item.decode, default)


def optional(item: Codec) -> Codec:
    """``item``, or JSON null for None."""
    return Codec(lambda value: None if value is None else item.encode(value),
                 lambda wire: None if wire is None else item.decode(wire))


def list_of(item: Codec) -> Codec:
    """A JSON list of ``item`` (a plain copy when items ride as-is)."""
    encode: Callable[[Any], Any] = list if item.encode is _same else (
        lambda value: [item.encode(element) for element in value])
    return Codec(encode,
                 lambda wire: [item.decode(element) for element in _list(wire)])


def tuple_of(*items: Codec) -> Codec:
    """A JSON list of one element per codec, decoded to a tuple."""
    encode: Callable[[Any], Any] = list if all(
        item.encode is _same for item in items) else (
        lambda value: [item.encode(element)
                       for item, element in zip(items, value)])

    def decode(wire: Any) -> Tuple[Any, ...]:
        elements = _list(wire)
        if len(elements) != len(items):
            raise WireFormatError(
                f"expected {len(items)} items, got {len(elements)}")
        return tuple(item.decode(element)
                     for item, element in zip(items, elements))

    return Codec(encode, decode)


def int_keyed(item: Codec) -> Codec:
    """``{int: item}`` as a JSON object keyed by the decimal string."""
    return Codec(
        lambda value: {str(member): item.encode(element)
                       for member, element in sorted(value.items())},
        lambda wire: {int(member): item.decode(element)
                      for member, element in _object(wire).items()})


def record(cls: Type[T], rows: Rows,
           **derived: Callable[[Dict[str, Any]], Any]) -> Codec:
    """``cls`` as the JSON object its rows describe.

    Every field of ``cls`` is named by one row, or by ``derived``: a
    field that rides nowhere and is computed from the decoded ones.
    """
    _check_rows(cls, rows, *derived)
    return Codec(partial(_encode, cls, rows),
                 partial(_decode, cls, rows, derived))


def union(key: str, alternatives: Mapping[str, Tuple[type, Rows]]) -> Codec:
    """One of several classes, told apart by the string tag at ``key``.

    ``alternatives`` maps each tag to ``(cls, rows)``; the class's record
    carries its tag as a first :func:`tag` row, so the key is required
    and counted like any other field.
    """
    by_tag = {value: record(cls, ((None, key, tag(value, key)),) + rows)
              for value, (cls, rows) in alternatives.items()}
    by_class = {cls: by_tag[value]
                for value, (cls, _) in alternatives.items()}

    def encode(value: Any) -> Any:
        codec = by_class.get(type(value))
        if codec is None:
            raise WireFormatError(f"no {key} for {value!r}")
        return codec.encode(value)

    def decode(wire: Any) -> Any:
        value = _object(wire).get(key)
        codec = by_tag.get(value) if type(value) is str else None
        if codec is None:
            raise WireFormatError(f"{key}: unknown {key} {value!r}")
        return codec.decode(wire)

    return Codec(encode, decode)


def _encode(cls: type, rows: Rows, obj: Any) -> Dict[str, Any]:
    """``obj`` as the JSON object its rows describe."""
    if not isinstance(obj, cls):
        raise WireFormatError(f"not a {cls.__name__}: {obj!r}")
    payload: Dict[str, Any] = {}
    key = ""
    try:
        for attribute, key, codec in rows:
            payload[key] = codec.encode(
                obj if attribute is None else getattr(obj, attribute))
    except WireFormatError as exc:
        raise WireFormatError(f"{key}: {exc}") from None
    return payload


def _decode(cls: Type[T], rows: Rows,
            derived: Mapping[str, Callable[[Dict[str, Any]], Any]],
            payload: Any) -> T:
    """The ``cls`` a JSON value describes, or :class:`WireFormatError`.

    Owns every check: the value is an object, each row's key is there
    (unless the row is omittable) and satisfies its codec (a tag is the
    first row, so a foreign version is refused before anything else is
    read), no other key is. Failures are prefixed with their key on the
    way out: a path from the root.
    """
    found = _object(payload)
    values: Dict[str, Any] = {}
    present = 0
    key = ""
    try:
        for attribute, key, codec in rows:
            if key in found:
                present += 1
                value = codec.decode(found[key])
            elif codec.omitted is _REQUIRED:
                raise WireFormatError("missing required field")
            else:
                value = codec.decode(codec.omitted)
            if attribute is not None:
                values[attribute] = value
    except (ValueError, OverflowError) as exc:
        raise WireFormatError(f"{key}: {exc}") from None
    if present != len(found):
        known = {key for _, key, _ in rows}
        unknown = ", ".join(sorted(str(key) for key in found.keys() - known))
        raise WireFormatError(f"unknown field(s) {unknown}")
    for name, derive in derived.items():
        values[name] = derive(values)
    return build(cls, **values)


def build(make: Callable[..., T], *args: Any, **fields: Any) -> T:
    """``make(...)``; its own refusal (``TopologySpec`` of a self-loop,
    ``AduName`` of sequence number 0, ``json.loads`` of anything but
    JSON) is a wire format violation like any other."""
    try:
        return make(*args, **fields)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            f"{make.__module__}.{make.__qualname__}: {exc}") from exc


def _check_rows(cls: type, rows: Rows, *derived: str) -> None:
    """Raise unless ``rows`` and ``derived`` name each field of ``cls``
    exactly once; :func:`record` runs it, so a class field without a row
    (or a row whose field is gone) stops the record from being built."""
    # NamedTuples list ``_fields``; the rest are dataclasses.
    fields = sorted(getattr(cls, "_fields", None)
                    or [f.name for f in dataclasses.fields(cls)])
    named = sorted([name for name, _, _ in rows if name is not None]
                   + list(derived))
    if named != fields:
        raise TypeError(f"SCHEMA[{cls.__name__}] rows name {named}, "
                        f"but the class's fields are {fields}")
