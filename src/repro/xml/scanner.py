"""The XML token kernel: one grammar under every entry point.

:func:`scan_windows`, the one scan loop, calls a consumer's handlers:
:func:`repro.xml.parser.parse_element_tree` builds the node tree and
:func:`repro.xml.streaming.stream_document` the columnar arena through
them, and :func:`iter_events` records them as SAX-style events. So the
grammar, the well-formedness rules and every error message exist once.

A token is one match of a compiled master regex at the window position
(close tag | open tag with its whole attribute run and ``/>``, or ``>``
and, for a *leaf*, its text and matching close tag | text up to the
next ``<``); comments, CDATA, processing instructions and the DOCTYPE
are delimited with ``str.find``. A leaf is decoded as its three tokens
would be. Text is accepted only when it ends inside the buffered window
(otherwise more chunks are pulled first), and the window is compacted
once per pull, never per token, so a scan is linear in the input under
any chunking. Only when no alternative matches does the cold
:func:`_tag_error` read the tag construct by construct, to say what is
wrong and where — or that the window merely ends too early.

Supported: elements, attributes (single or double quoted), text with
the predefined entities and numeric character references, comments,
CDATA, processing instructions / the XML declaration, and a DOCTYPE,
skipped as a whole except that the ``<!ENTITY name "text">``
declarations of its internal subset are honoured. What could recurse or
reach outside the document — a declared entity referencing another,
parameter entities, a *reference* to a ``SYSTEM`` / ``PUBLIC`` entity —
raises :class:`~repro.errors.XMLParseError`; nothing is ever fetched.
Declared entities may not amplify the document either: past
:data:`_AMPLIFICATION_ARMED` characters of replacement text, more than
:data:`_MAX_AMPLIFICATION` times the characters scanned is refused, at
the text or attribute value that crosses the line, before it is expanded.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from typing import Any

from repro.errors import XMLParseError

#: Characters pulled per window refill (at least; the scan splits no chunk).
_CHUNK = 1 << 16

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_S = r"[ \t\r\n]*"
_QUOTED = r"\"[^\"]*\"|'[^']*'"

#: Group 1: a close tag's name. Groups 2-3: an open tag's name and its
#: attribute run, then 4: a self-closing ``/`` or 5: a leaf's text. No
#: group: text. The lookahead keeps the name whole: without it
#: ``<ab="1"/>`` would backtrack into tag ``a`` with attribute ``b``.
_TOKEN = re.compile(
    rf"</({_NAME}){_S}>"
    rf"|<({_NAME})(?=[ \t\r\n/>])"
    rf"((?:[ \t\r\n]+{_NAME}{_S}={_S}(?:{_QUOTED}))*){_S}"
    rf"(?:(/)>|>(?:([^<]*)</\2{_S}>)?)"
    rf"|[^<]+")
_ATTRIBUTE = re.compile(rf"({_NAME}){_S}={_S}({_QUOTED})")
_NAME_AT = re.compile(_NAME)
_SPACE_AT = re.compile(_S)

#: Markup delimited by a fixed terminator: (opener, closer, what).
_DELIMITED = (("<!--", "-->", "comment"),
              ("<![CDATA[", "]]>", "CDATA section"),
              ("<?", "?>", "processing instruction"))
#: The longest opener: a shorter window cannot be classified yet.
_LOOKAHEAD = len("<![CDATA[")

#: One step through a DOCTYPE (the alternatives exclude each other by
#: their first characters: one parse whatever the chunking). Groups:
#: ``>``, a bare ``%``, ``<`` and, when that opens an entity declaration,
#: a parameter entity's ``%``, the name, SYSTEM/PUBLIC, the quoted text.
_DOCTYPE_STEP = re.compile(
    rf"<!--.*?-->|<\?.*?\?>|{_QUOTED}|[^<>\"'%]+|(>)|(%)"
    rf"|(<)(?!!--|\?)(?:!ENTITY\s+(%\s+)?({_NAME})\s+"
    rf"(?:(SYSTEM|PUBLIC)\s|({_QUOTED})))?", re.DOTALL)
#: What replacement text may not hold: parameter-entity references,
#: markup, the character references to ``&`` / ``<`` that a conforming
#: parser would read again as markup, and references to other entities.
_UNSUPPORTED = re.compile(
    r"[%<]|&#(?:0*(?:38|60)|[xX]0*(?:26|3[cC]));"
    r"|&(?!(?:amp|lt|gt|quot|apos|#[0-9]+|#[xX][0-9a-fA-F]+);)[^;&]*;?")
_CHARACTER = re.compile(r"#(?:([0-9]+)|[xX]([0-9a-fA-F]+))")
_REFERENCE = re.compile(r"&([^;&]*);")

#: The entity amplification cap (expat's defaults): once declared
#: entities have expanded to this many characters, they may not exceed
#: ``_MAX_AMPLIFICATION`` times the characters scanned so far.
_AMPLIFICATION_ARMED = 8 << 20
_MAX_AMPLIFICATION = 100

_PREDEFINED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


class _BadReference(Exception):
    """An entity reference that cannot be decoded, *offset* characters
    into the text handed to :func:`_expand`."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


def _expand(raw: str, entities: "dict[str, str | None]") -> str:
    """*raw* with every ``&name;`` / ``&#n;`` / ``&#xh;`` replaced."""
    head, *pieces = raw.split("&")
    out = [head]
    offset = len(head)
    for piece in pieces:
        name, semicolon, rest = piece.partition(";")
        if not semicolon:
            raise _BadReference("unterminated entity reference", offset)
        value = entities.get(name)
        if value is None:
            reference = _CHARACTER.fullmatch(name)
            if reference is not None:
                decimal, hexadecimal = reference.groups()
                code = int(decimal) if decimal else int(hexadecimal, 16)
                # The XML 1.0 Char production.
                if (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
                        or 0xE000 <= code <= 0xFFFD
                        or 0x10000 <= code <= 0x10FFFF):
                    value = chr(code)
            if value is None:
                raise _BadReference(
                    f"invalid character reference &{name};"
                    if name.startswith("#") else
                    f"external entity &{name}; is not supported (nothing "
                    f"is fetched)" if name in entities else
                    f"unknown entity &{name};", offset)
        out.append(value)
        out.append(rest)
        offset += len(piece) + 1
    return "".join(out)


class _Window:
    """The unconsumed tail of chunked text, with absolute positions.

    Consumed text is dropped once per :meth:`refill` (line and column
    kept for error messages): the whole document is never resident.
    """

    __slots__ = ("_chunks", "buf", "eof", "_offset", "_lines", "_col",
                 "_expanded")

    def __init__(self, chunks: Iterable[str]):
        self._chunks = iter(chunks)
        self.buf = ""
        self.eof = False
        self._offset = 0  # absolute offset of buf[0]
        self._lines = 0   # newlines before buf[0]
        self._col = 0     # column of buf[0] within its line
        self._expanded = 0  # characters declared entities expanded to

    def refill(self, pos: int) -> None:
        """Drop ``buf[:pos]`` and pull more text behind the rest: at
        least as much as is kept (and ``_CHUNK``), so a token longer
        than the window is rescanned a geometric series of times, not
        once per chunk. Sets :attr:`eof` once the chunks run out."""
        self._offset, self._lines, self._col = self._locate(pos)
        kept = self.buf[pos:]
        # Nothing kept and one chunk pulled: join returns that chunk
        # itself, so a document handed over whole is never copied.
        pieces = [kept] if kept else []
        wanted = max(_CHUNK, len(kept))
        for chunk in self._chunks:
            pieces.append(chunk)
            wanted -= len(chunk)
            if wanted <= 0:
                break
        else:
            self.eof = True
        self.buf = "".join(pieces)

    def decode(self, raw: str, index: int,
               entities: "dict[str, str | None]") -> str:
        """*raw* (found at ``buf[index]``) with its references expanded."""
        if entities is not _PREDEFINED:  # the DOCTYPE declared some
            self._expanded += sum(map(len, filter(None, map(
                entities.get, _REFERENCE.findall(raw)))))
            scanned = self._offset + index + len(raw)
            if self._expanded > max(_AMPLIFICATION_ARMED,
                                    _MAX_AMPLIFICATION * scanned):
                raise self.error(
                    f"entity references expand to {self._expanded} "
                    f"characters, more than {_MAX_AMPLIFICATION} times the "
                    f"{scanned} scanned", index)
        try:
            return _expand(raw, entities)
        except _BadReference as bad:
            raise self.error(bad.message, index + bad.offset) from None

    def _locate(self, index: int) -> "tuple[int, int, int]":
        """``buf[index]``'s absolute offset, line and column, from 0."""
        newlines = self.buf.count("\n", 0, index)
        column = (index - self.buf.rfind("\n", 0, index) - 1 if newlines
                  else self._col + index)
        return self._offset + index, self._lines + newlines, column

    def error(self, message: str, index: int) -> XMLParseError:
        """An :class:`XMLParseError` positioned at ``buf[index]``."""
        position, line, column = self._locate(index)
        return XMLParseError(message, position=position, line=line + 1,
                             column=column + 1)


def _tag_error(window: _Window, pos: int) -> XMLParseError | None:
    """Why the tag at ``buf[pos]`` is not a token.

    Reads the tag construct by construct up to the first thing that
    cannot belong to one. None while the window ends before that point
    and more input may still complete the tag.
    """
    buf = window.buf
    size = len(buf)

    def wrong(message: str, decided: int,
              reported: int | None = None) -> XMLParseError | None:
        # The verdict needs buf[decided]: None while it is still to come.
        if decided >= size and not window.eof:
            return None
        return window.error(message,
                            decided if reported is None else reported)

    closing = buf.startswith("/", pos + 1)
    index = pos + 2 if closing else pos + 1
    name = _NAME_AT.match(buf, index)
    if name is None:
        return wrong("expected a name", index)
    tag = name.group()
    index = _SPACE_AT.match(buf, name.end()).end()
    if closing:
        return wrong(f"malformed closing tag </{tag}>", index)
    glued = -1  # just past an attribute value
    while index < size and buf[index] not in ">/?":
        name = _NAME_AT.match(buf, index)
        if name is None:
            return wrong("expected a name", index)
        key = name.group()
        if index == glued:
            return wrong(f"expected whitespace before attribute {key!r}",
                         index)
        index = _SPACE_AT.match(buf, name.end()).end()
        if not buf.startswith("=", index):
            return wrong(f"expected '=' after attribute {key!r}", index)
        index = _SPACE_AT.match(buf, index + 1).end()
        quote = buf[index:index + 1]
        if quote not in ("'", '"'):
            return wrong(f"attribute {key!r} value must be quoted", index)
        close = buf.find(quote, index + 1)
        if close < 0:
            return wrong(f"unterminated attribute {key!r} value "
                         f"(expected {quote!r})", size, index + 1)
        glued = close + 1
        index = _SPACE_AT.match(buf, glued).end()
    # A lone "/" still waits for its ">".
    decided = index + 1 if buf.startswith("/", index) else index
    return wrong(f"malformed tag <{tag}>", decided, index)


def _attributes(window: _Window, base: int, run: str,
                entities: "dict[str, str | None]") -> dict[str, str]:
    """The attributes of *run* (found at ``buf[base]``) with positions
    kept: values are decoded and a repeated name is refused."""
    attributes: dict[str, str] = {}
    for found in _ATTRIBUTE.finditer(run):
        key, value = found.groups()
        if key in attributes:
            raise window.error(f"duplicate attribute {key!r}",
                               base + found.end())
        value = value[1:-1]
        if "&" in value:
            value = window.decode(value, base + found.start(2) + 1, entities)
        attributes[key] = value
    return attributes


def _doctype(window: _Window, pos: int
             ) -> "tuple[int, dict[str, str | None]] | None":
    """The index just past the DOCTYPE at ``buf[pos]`` and the entity
    table after it; None while the window ends inside the DOCTYPE.

    Angle brackets nest (the internal subset's declarations); quoted
    literals, comments and PIs are opaque. External entities map to
    None (never fetched: referencing one is the error). As in XML 1.0
    a name's first declaration binds, so the predefined entities stay.
    """
    buf = window.buf
    entities: "dict[str, str | None]" = dict(_PREDEFINED)
    depth = 0
    while True:
        step = _DOCTYPE_STEP.match(buf, pos)
        if step is None:
            return None
        pos = step.end()
        closed, reference, opened, parameter, name, external, quoted = \
            step.groups()
        if parameter or reference:
            raise window.error("parameter entities are not supported",
                               step.start(4 if parameter else 2))
        if closed:
            depth -= 1
            if not depth:
                # Without a declaration the table stays the shared one:
                # no amplification accounting (see ``_Window.decode``).
                return pos, (entities if len(entities) > len(_PREDEFINED)
                             else _PREDEFINED)
        elif opened:
            depth += 1
            if external and name not in entities:
                entities[name] = None
            elif quoted and name not in entities:
                at = step.start(7) + 1
                unsupported = _UNSUPPORTED.search(quoted, 1)
                if unsupported is not None:
                    raise window.error(
                        f"entity {name!r} holds {unsupported.group()!r}: "
                        f"replacement text is decoded once and may hold "
                        f"plain text, predefined entities and character "
                        f"references other than to '&' and '<' only",
                        at - 1 + unsupported.start())
                entities[name] = window.decode(quoted[1:-1], at, _PREDEFINED)


def scan_windows(chunks: Iterable[str], consumer: Any) -> Iterator[None]:
    """Scan chunked XML text into *consumer*'s handlers, yielding before
    each window refill: ``start(name, attributes)``, ``text(decoded)``,
    ``end(name)``, and ``leaf(name, attributes, decoded)`` for an element
    that is one token (*decoded* is "" if it is blank or self-closing).

    Enforces well-formedness as it goes (matching close tags, a single
    root, no text outside it). Comments, PIs and the DOCTYPE are
    skipped, whitespace-only text is dropped and CDATA is text verbatim.
    Only the unconsumed tail of the input is held, and an
    :class:`~repro.errors.XMLParseError` carries the same message and
    position whatever the chunking.
    """
    on_start, on_text, on_end, on_leaf = (
        consumer.start, consumer.text, consumer.end, consumer.leaf)
    window = _Window(chunks)
    entities: "dict[str, str | None]" = _PREDEFINED
    open_tags: list[str] = []
    saw_root = False
    match = _TOKEN.match
    buf = ""
    pos = size = 0

    while True:
        token = match(buf, pos)
        if token is not None:
            kind = token.lastindex
            if kind is None:  # text
                end = token.end()
                if end < size or window.eof:
                    raw = token.group()
                    if not raw.isspace():
                        if not open_tags:
                            raise window.error(
                                "text content outside the root element", end)
                        if "&" in raw:
                            raw = window.decode(raw, pos, entities)
                        on_text(raw)
                    pos = end
                    continue
                # The text may go on in the next chunk: refill first.
            elif kind != 1:  # an open tag: 3, self-closing 4, leaf 5
                name, run = token.group(2, 3)
                attributes = _attributes(
                    window, token.start(3), run, entities) if run else {}
                if not open_tags:
                    if saw_root:
                        raise window.error(
                            "multiple root elements",
                            token.start(5) if kind == 5 else token.end())
                    saw_root = True
                pos = token.end()
                if kind == 3:
                    on_start(name, attributes)
                    open_tags.append(name)
                    continue
                raw = token.group(5) or ""
                if raw.isspace():
                    raw = ""
                elif "&" in raw:
                    try:
                        raw = window.decode(raw, token.start(5), entities)
                    except XMLParseError:
                        on_start(name, attributes)  # opened, as 3 tokens
                        raise
                on_leaf(name, attributes, raw)
                continue
            else:  # close tag
                name = token.group(1)
                pos = token.end()
                if not open_tags:
                    raise window.error(
                        f"closing tag </{name}> with no open element", pos)
                expected = open_tags.pop()
                if expected != name:
                    raise window.error(
                        f"closing tag </{name}> does not match <{expected}>",
                        pos)
                on_end(name)
                continue
        elif size - pos >= _LOOKAHEAD or window.eof:
            # Cold: the input's end, markup that is no tag, or an error.
            if pos == size:
                break
            delimited = next((entry for entry in _DELIMITED
                              if buf.startswith(entry[0], pos)), None)
            if delimited is not None:
                opener, closer, what = delimited
                start = pos + len(opener)
                end = buf.find(closer, start)
                if end >= 0:
                    pos = end + len(closer)
                    if opener == "<![CDATA[":
                        if not open_tags:
                            raise window.error(
                                "CDATA outside the root element", pos)
                        on_text(buf[start:end])
                    continue
                if window.eof:
                    raise window.error(
                        f"unterminated {what} (expected {closer!r})", start)
            elif buf.startswith(("<!DOCTYPE", "<!doctype"), pos):
                doctype = _doctype(window, pos)
                if doctype is not None:
                    pos, entities = doctype
                    continue
                if window.eof:
                    raise window.error(
                        "unterminated DOCTYPE declaration (expected '>')",
                        pos + 2)
            else:
                error = _tag_error(window, pos)
                if error is not None:
                    raise error
        yield
        window.refill(pos)
        buf = window.buf
        size = len(buf)
        pos = 0

    if open_tags:
        raise window.error(f"unclosed element <{open_tags[-1]}>", pos)
    if not saw_root:
        raise window.error("document has no root element", pos)


class _Events(list):
    """:func:`iter_events`' handlers: each call as event triples."""

    def start(self, name: str, attributes: dict[str, str]) -> None:
        self.append(("start", name, attributes))

    def text(self, decoded: str) -> None:
        self.append(("text", decoded, None))

    def end(self, name: str) -> None:
        self.append(("end", name, None))

    def leaf(self, name: str, attributes: dict, decoded: str) -> None:
        self.append(("start", name, attributes))
        if decoded:
            self.append(("text", decoded, None))
        self.append(("end", name, None))


def iter_events(chunks: Iterable[str]
                ) -> "Iterator[tuple[str, Any, Any]]":
    """SAX-style ``("start", tag, attributes)``, ``("text", decoded,
    None)`` and ``("end", tag, None)`` events: :func:`scan_windows`'
    calls, a window at a time (chunks cut to a fixed 64 Ki characters)."""
    events = _Events()
    pieces = (chunk[lo:lo + 65536] for chunk in chunks
              for lo in range(0, len(chunk), 65536))
    try:
        for _window in scan_windows(pieces, events):
            yield from events
            events.clear()
    except XMLParseError:
        yield from events
        raise
    yield from events


def decode_entities(text: str) -> str:
    """Replace ``&amp;``-style and numeric references with their
    characters (the predefined entities; a document's own declarations
    are known only to the scan that read its DOCTYPE)."""
    if "&" not in text:
        return text
    window = _Window(())
    window.buf = text
    return window.decode(text, 0, _PREDEFINED)
