"""Common Data Representation (CDR) marshalling.

Implements the subset of CORBA CDR needed by the mini-ORB and the
Secure Multicast Protocols' wire formats: little-endian primitives with
CDR's natural alignment rules, strings (length-prefixed,
NUL-terminated), octet sequences, and homogeneous sequences.

Typed values are described by small *type tags* so that IDL operation
signatures can drive marshalling generically:

* ``"boolean" | "octet" | "short" | "ushort" | "long" | "ulong" |
  "longlong" | "ulonglong" | "float" | "double" | "string" | "octets"``
* ``("sequence", element_tag)`` for homogeneous sequences;
* ``("struct", (("field", tag), ...))`` for records, marshalled in
  declaration order and decoded to dicts;
* ``("enum", ("RED", "GREEN", ...))`` for IDL enums, marshalled as the
  member's ordinal (ulong) and decoded back to the member name;
* ``("union", (("case_label", branch_tag), ...))`` for IDL unions,
  marshalled as the case ordinal followed by the branch value, and
  represented in Python as ``(case_label, value)`` pairs.

Every primitive also has a direct method (``write_ulong``,
``read_ulonglong``, ...) compiled against a precompiled
:class:`struct.Struct`; the wire-format hot paths (GIOP headers,
multicast frames, tokens) call these instead of the generic
string-tag dispatch.  Direct methods and generic ``write``/``read``
produce byte-identical output.  :mod:`repro.perf` can swap in the
pre-optimisation method suite (``baseline`` mode) so the perf bench can
measure the fast paths against their original implementations on the
same host.

Decoding is canonical in both suites: the readers reject non-zero
alignment padding and boolean octets other than 0 and 1, so every
value a decoder accepts re-encodes to exactly the bytes it was read
from.  Receivers that compare raw frames (the multicast token history)
rely on this.
"""

import struct

from repro import perf


class MarshalError(Exception):
    """Raised on malformed CDR data or unsupported types."""


_PRIMITIVES = {
    # tag: (struct format, size/alignment)
    "boolean": ("<B", 1),
    "octet": ("<B", 1),
    "short": ("<h", 2),
    "ushort": ("<H", 2),
    "long": ("<i", 4),
    "ulong": ("<I", 4),
    "longlong": ("<q", 8),
    "ulonglong": ("<Q", 8),
    "float": ("<f", 4),
    "double": ("<d", 8),
}

#: tag -> (precompiled Struct, size/alignment)
_STRUCTS = {
    tag: (struct.Struct(fmt), size) for tag, (fmt, size) in _PRIMITIVES.items()
}

_PADDING = {n: b"\x00" * n for n in range(1, 8)}


class CdrEncoder:
    """Builds a CDR byte string with correct alignment."""

    def __init__(self):
        self._parts = bytearray()

    def _align(self, size):
        remainder = len(self._parts) % size
        if remainder:
            self._parts.extend(_PADDING[size - remainder])

    def write(self, tag, value):
        """Marshal ``value`` described by type ``tag``."""
        if isinstance(tag, tuple):
            kind = tag[0]
            if kind == "sequence":
                if not isinstance(value, (list, tuple)):
                    raise MarshalError("sequence requires list/tuple, got %r" % type(value))
                self.write_ulong(len(value))
                for item in value:
                    self.write(tag[1], item)
                return self
            if kind == "struct":
                if not isinstance(value, dict):
                    raise MarshalError("struct requires dict, got %r" % type(value))
                for field, field_tag in tag[1]:
                    if field not in value:
                        raise MarshalError("struct missing field %r" % field)
                    self.write(field_tag, value[field])
                return self
            if kind == "enum":
                members = tag[1]
                if value not in members:
                    raise MarshalError(
                        "enum value %r not in %r" % (value, list(members))
                    )
                self.write_ulong(members.index(value))
                return self
            if kind == "union":
                cases = tag[1]
                if not (isinstance(value, tuple) and len(value) == 2):
                    raise MarshalError(
                        "union requires a (case_label, value) pair, got %r" % (value,)
                    )
                label, branch_value = value
                labels = [case_label for case_label, _ in cases]
                if label not in labels:
                    raise MarshalError("union case %r not in %r" % (label, labels))
                index = labels.index(label)
                self.write_ulong(index)
                self.write(cases[index][1], branch_value)
                return self
            raise MarshalError("unknown composite tag %r" % (tag,))
        if tag in _PRIMITIVES:
            self._write_primitive(tag, value)
            return self
        if tag == "string":
            return self.write_string(value)
        if tag == "octets":
            return self.write_octets(value)
        raise MarshalError("unknown type tag %r" % (tag,))

    def getvalue(self):
        return bytes(self._parts)

    def __len__(self):
        return len(self._parts)


class CdrDecoder:
    """Reads values back out of a CDR byte string."""

    def __init__(self, data, offset=0):
        self._data = bytes(data)
        self._pos = offset

    def _align(self, size):
        remainder = self._pos % size
        if remainder:
            end = self._pos + size - remainder
            if any(self._data[self._pos : end]):
                raise MarshalError("non-zero CDR alignment padding")
            self._pos = end

    def read(self, tag):
        """Unmarshal one value described by type ``tag``."""
        if isinstance(tag, tuple):
            kind = tag[0]
            if kind == "sequence":
                length = self.read_ulong()
                if length > len(self._data) - self._pos:
                    raise MarshalError("sequence length %d exceeds data" % length)
                return [self.read(tag[1]) for _ in range(length)]
            if kind == "struct":
                return {field: self.read(field_tag) for field, field_tag in tag[1]}
            if kind == "enum":
                members = tag[1]
                ordinal = self.read_ulong()
                if ordinal >= len(members):
                    raise MarshalError(
                        "enum ordinal %d out of range for %r" % (ordinal, list(members))
                    )
                return members[ordinal]
            if kind == "union":
                cases = tag[1]
                index = self.read_ulong()
                if index >= len(cases):
                    raise MarshalError("union discriminator %d out of range" % index)
                label, branch_tag = cases[index]
                return (label, self.read(branch_tag))
            raise MarshalError("unknown composite tag %r" % (tag,))
        if tag in _PRIMITIVES:
            return self._read_primitive(tag)
        if tag == "string":
            return self.read_string()
        if tag == "octets":
            return self.read_octets()
        raise MarshalError("unknown type tag %r" % (tag,))

    @property
    def position(self):
        return self._pos

    def remaining(self):
        return len(self._data) - self._pos

    def at_end(self):
        return self._pos >= len(self._data)


# ----------------------------------------------------------------------
# optimised method suite: precompiled Structs, one call per primitive
# ----------------------------------------------------------------------

def _make_fast_writer(tag):
    packer, size = _STRUCTS[tag]
    pack = packer.pack
    boolean = tag == "boolean"

    def writer(self, value):
        parts = self._parts
        remainder = len(parts) % size
        if remainder:
            parts.extend(_PADDING[size - remainder])
        try:
            if boolean:
                value = 1 if value else 0
            parts.extend(pack(value))
        except struct.error as exc:
            raise MarshalError("cannot marshal %r as %s: %s" % (value, tag, exc))
        return self

    writer.__name__ = "write_" + tag
    return writer


def _make_fast_reader(tag):
    unpacker, size = _STRUCTS[tag]
    unpack_from = unpacker.unpack_from
    fmt = _PRIMITIVES[tag][0]
    #: padding octets -> one unpack of (padding, value): the padding is
    #: read to be checked, at one struct call per value
    padded_unpack = {
        pad: struct.Struct("<%ds%s" % (pad, fmt[1:])).unpack_from
        for pad in range(1, size)
    }
    boolean = tag == "boolean"

    def reader(self):
        pos = self._pos
        data = self._data
        remainder = pos % size
        if remainder:
            pad = size - remainder
            end = pos + pad + size
            if end > len(data):
                raise MarshalError("truncated CDR data reading %s" % tag)
            padding, value = padded_unpack[pad](data, pos)
            if padding != _PADDING[pad]:
                # A decoder that skipped padding unchecked would accept
                # two byte strings for one value: decoding must be
                # canonical.
                raise MarshalError("non-zero CDR alignment padding")
        else:
            end = pos + size
            if end > len(data):
                raise MarshalError("truncated CDR data reading %s" % tag)
            (value,) = unpack_from(data, pos)
        self._pos = end
        if boolean:
            if value > 1:
                raise MarshalError("CDR boolean octet %d is neither 0 nor 1" % value)
            return value == 1
        return value

    reader.__name__ = "read_" + tag
    return reader


_FAST_WRITERS = {tag: _make_fast_writer(tag) for tag in _PRIMITIVES}
_FAST_READERS = {tag: _make_fast_reader(tag) for tag in _PRIMITIVES}


def _fast_write_primitive(self, tag, value):
    writer = _FAST_WRITERS.get(tag)
    if writer is None:
        raise MarshalError("unknown type tag %r" % (tag,))
    writer(self, value)


def _fast_read_primitive(self, tag):
    reader = _FAST_READERS.get(tag)
    if reader is None:
        raise MarshalError("unknown type tag %r" % (tag,))
    return reader(self)


def _fast_write_string(self, value):
    if not isinstance(value, str):
        raise MarshalError("string tag requires str, got %r" % type(value))
    data = value.encode("utf-8")
    self.write_ulong(len(data) + 1)  # CDR counts the terminating NUL
    parts = self._parts
    parts.extend(data)
    parts.append(0)
    return self


def _fast_write_octets(self, value):
    if not isinstance(value, (bytes, bytearray)):
        raise MarshalError("octets tag requires bytes, got %r" % type(value))
    self.write_ulong(len(value))
    self._parts.extend(value)
    return self


def _fast_read_string(self):
    length = self.read_ulong()
    if length == 0:
        raise MarshalError("CDR string length must include the NUL")
    pos = self._pos
    end = pos + length
    data = self._data
    if end > len(data):
        raise MarshalError("truncated CDR string")
    if data[end - 1]:
        raise MarshalError("CDR string missing NUL terminator")
    self._pos = end
    try:
        return data[pos : end - 1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError("invalid UTF-8 in CDR string: %s" % exc)


def _fast_read_octets(self):
    length = self.read_ulong()
    pos = self._pos
    end = pos + length
    if end > len(self._data):
        raise MarshalError("truncated CDR octet sequence")
    self._pos = end
    return self._data[pos:end]


# ----------------------------------------------------------------------
# baseline method suite: the pre-optimisation implementations, kept so
# the perf bench can measure the fast paths against them (repro.perf)
# ----------------------------------------------------------------------

def _legacy_write_primitive(self, tag, value):
    fmt, size = _PRIMITIVES[tag]
    self._align(size)
    try:
        if tag == "boolean":
            value = 1 if value else 0
        self._parts.extend(struct.pack(fmt, value))
    except struct.error as exc:
        raise MarshalError("cannot marshal %r as %s: %s" % (value, tag, exc))


def _legacy_read_primitive(self, tag):
    fmt, size = _PRIMITIVES[tag]
    self._align(size)
    end = self._pos + size
    if end > len(self._data):
        raise MarshalError("truncated CDR data reading %s" % tag)
    (value,) = struct.unpack_from(fmt, self._data, self._pos)
    self._pos = end
    if tag == "boolean":
        if value > 1:
            raise MarshalError("CDR boolean octet %d is neither 0 nor 1" % value)
        return bool(value)
    return value


def _make_legacy_writer(tag):
    def writer(self, value):
        self._write_primitive(tag, value)
        return self

    writer.__name__ = "write_" + tag
    return writer


def _make_legacy_reader(tag):
    def reader(self):
        return self._read_primitive(tag)

    reader.__name__ = "read_" + tag
    return reader


def _legacy_write_string(self, value):
    if not isinstance(value, str):
        raise MarshalError("string tag requires str, got %r" % type(value))
    data = value.encode("utf-8")
    self.write_ulong(len(data) + 1)  # CDR counts the terminating NUL
    self._parts.extend(data)
    self._parts.append(0)
    return self


def _legacy_write_octets(self, value):
    if not isinstance(value, (bytes, bytearray)):
        raise MarshalError("octets tag requires bytes, got %r" % type(value))
    self.write_ulong(len(value))
    self._parts.extend(value)
    return self


def _legacy_read_string(self):
    length = self.read_ulong()
    if length == 0:
        raise MarshalError("CDR string length must include the NUL")
    end = self._pos + length
    if end > len(self._data):
        raise MarshalError("truncated CDR string")
    raw = self._data[self._pos : end]
    self._pos = end
    if raw[-1:] != b"\x00":
        raise MarshalError("CDR string missing NUL terminator")
    try:
        return raw[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError("invalid UTF-8 in CDR string: %s" % exc)


def _legacy_read_octets(self):
    length = self.read_ulong()
    end = self._pos + length
    if end > len(self._data):
        raise MarshalError("truncated CDR octet sequence")
    raw = self._data[self._pos : end]
    self._pos = end
    return raw


def _apply_mode(optimized):
    """Install the optimised or baseline method suite on both classes."""
    if optimized:
        CdrEncoder._write_primitive = _fast_write_primitive
        CdrEncoder.write_string = _fast_write_string
        CdrEncoder.write_octets = _fast_write_octets
        CdrDecoder._read_primitive = _fast_read_primitive
        CdrDecoder.read_string = _fast_read_string
        CdrDecoder.read_octets = _fast_read_octets
        for tag in _PRIMITIVES:
            setattr(CdrEncoder, "write_" + tag, _FAST_WRITERS[tag])
            setattr(CdrDecoder, "read_" + tag, _FAST_READERS[tag])
    else:
        CdrEncoder._write_primitive = _legacy_write_primitive
        CdrEncoder.write_string = _legacy_write_string
        CdrEncoder.write_octets = _legacy_write_octets
        CdrDecoder._read_primitive = _legacy_read_primitive
        CdrDecoder.read_string = _legacy_read_string
        CdrDecoder.read_octets = _legacy_read_octets
        for tag in _PRIMITIVES:
            setattr(CdrEncoder, "write_" + tag, _make_legacy_writer(tag))
            setattr(CdrDecoder, "read_" + tag, _make_legacy_reader(tag))


perf.register_mode_listener(_apply_mode)
