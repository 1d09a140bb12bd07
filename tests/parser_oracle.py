"""The per-character XML parser, kept as a reference.

xml_model's pattern-driven _Parser replaced it; test_xml_parser.py
compares the two.  Names, whitespace and unquoted attribute values are
read one character at a time, and bare ampersands are found by walking
each text run.
"""

from typing import Optional

from xstring.xml_model import (NodeKind, Violation, WellFormednessError,
                               WellFormednessReport, XmlDocument, XmlNode,
                               XmlSyntaxError)


_WS = " \t\r\n"
_NAME_EXTRA = ".-_:"


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c in "_:"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c in _NAME_EXTRA


def _valid_name(name: str) -> bool:
    if not name or not _is_name_start(name[0]):
        return False
    return all(_is_name_char(c) for c in name)


class _Parser:
    """Single-pass scanner shared by parse_xml (strict) and
    check_well_formed (collecting)."""

    def __init__(self, text: str, collect: bool):
        self.text = text
        self.pos = 0
        self.collect = collect
        self.violations: list[Violation] = []
        self.prolog: Optional[XmlNode] = None
        self.root: Optional[XmlNode] = None
        self.stack: list[XmlNode] = []
        self.fatal = False

    # -- error plumbing -----------------------------------------------------

    def violate(self, rule: int, offset: int, message: str) -> None:
        if self.collect:
            self.violations.append(Violation(rule, offset, message))
        else:
            raise WellFormednessError(rule, offset, message)

    def syntax(self, offset: int, message: str) -> None:
        if self.collect:
            self.violations.append(Violation(None, offset, message))
            self.fatal = True
        else:
            raise XmlSyntaxError(offset, message)

    # -- low level ----------------------------------------------------------

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def skip_ws(self) -> None:
        while not self.eof() and self.text[self.pos] in _WS:
            self.pos += 1

    def read_until(self, marker: str) -> Optional[str]:
        end = self.text.find(marker, self.pos)
        if end < 0:
            return None
        out = self.text[self.pos:end]
        self.pos = end + len(marker)
        return out

    def read_name(self) -> str:
        start = self.pos
        while not self.eof() and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    # -- entity scan (rule 8) ----------------------------------------------

    def scan_amps(self, data: str, base: int) -> None:
        i = 0
        while True:
            i = data.find("&", i)
            if i < 0:
                return
            j = i + 1
            if j < len(data) and data[j] == "#":
                j += 1
            k = j
            while k < len(data) and (data[k].isalnum() or data[k] in "._-"):
                k += 1
            if k == j or k >= len(data) or data[k] != ";":
                self.violate(8, base + i,
                             "bare '&' must be an entity reference")
                i += 1
            else:
                i = k + 1

    # -- node attachment ----------------------------------------------------

    def attach(self, node: XmlNode, offset: int) -> None:
        if self.stack:
            self.stack[-1].children.append(node)
            return
        # top level: only the declaration and a single root element belong here
        if node.kind is NodeKind.ELEMENT and self.root is None:
            self.root = node
            return
        if node.kind is NodeKind.TEXT and node.is_whitespace_text():
            return
        self.violate(1, offset, "content outside the single root element")

    # -- constructs ---------------------------------------------------------

    def parse_text_run(self) -> None:
        start = self.pos
        end = self.text.find("<", self.pos)
        if end < 0:
            end = len(self.text)
        data = self.text[start:end]
        self.pos = end
        if not data:
            return
        self.scan_amps(data, start)
        self.attach(XmlNode.text(data), start)

    def parse_comment(self, start: int) -> None:
        self.pos += 4  # past <!--
        body = self.read_until("-->")
        if body is None:
            self.syntax(start, "unterminated comment")
            self.pos = len(self.text)
            return
        self.attach(XmlNode.comment(body), start)

    def parse_cdata(self, start: int) -> None:
        self.pos += 9  # past <![CDATA[
        body = self.read_until("]]>")
        if body is None:
            self.syntax(start, "unterminated CDATA section")
            self.pos = len(self.text)
            return
        self.attach(XmlNode.cdata(body), start)

    def parse_dtd(self, start: int) -> None:
        # opaque <!...> capture; '<'/'>' depth covers internal subsets
        self.pos += 2
        depth = 1
        body_start = self.pos
        while not self.eof():
            c = self.text[self.pos]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    body = self.text[body_start:self.pos]
                    self.pos += 1
                    if not self.stack:
                        # no slot for a doctype in the document model
                        self.violate(1, start,
                                     "declaration outside the root element")
                        return
                    self.attach(XmlNode.dtd(body), start)
                    return
            self.pos += 1
        self.syntax(start, "unterminated '<!' declaration")

    def parse_pi(self, start: int) -> None:
        self.pos += 2  # past <?
        target = self.read_name()
        if not target:
            self.syntax(start, "processing instruction without a target")
            self.read_until("?>")
            return
        rest = self.read_until("?>")
        if rest is None:
            self.syntax(start, "unterminated processing instruction")
            self.pos = len(self.text)
            return
        # exactly one separator char, so leading whitespace in data survives
        content = rest[1:] if rest[:1] and rest[0] in _WS else rest
        node = XmlNode.pi(target, content)
        if target.lower() == "xml":
            if start == 0 and self.prolog is None:
                self.prolog = node
            else:
                self.violate(3, start,
                             "XML declaration must be at the start of the document")
            return
        if not _valid_name(target):
            self.violate(7, start, f"invalid instruction target {target!r}")
        self.attach(node, start)

    def parse_attributes(self, owner: XmlNode) -> bool:
        """Read attributes up to '>' or '/>'.  Returns True for self-closing."""
        seen: set[str] = set()
        while True:
            self.skip_ws()
            if self.eof():
                self.syntax(self.pos, "unterminated start tag")
                return True
            if self.peek(2) == "/>":
                self.pos += 2
                return True
            if self.peek() == ">":
                self.pos += 1
                return False
            name_off = self.pos
            name = self.read_name()
            if not name:
                self.syntax(self.pos, f"unexpected {self.peek()!r} in tag")
                self.pos += 1
                continue
            if not _valid_name(name):
                self.violate(7, name_off, f"invalid attribute name {name!r}")
            value: Optional[str] = None
            self.skip_ws()
            if self.peek() == "=":
                self.pos += 1
                self.skip_ws()
                q = self.peek()
                if q in "\"'":
                    self.pos += 1
                    value = self.read_until(q)
                    if value is None:
                        self.syntax(name_off, "unterminated attribute value")
                        return True
                    self.scan_amps(value, self.pos - len(value) - 1)
                else:
                    self.violate(6, self.pos,
                                 "attribute value must be quoted")
                    start = self.pos
                    while (not self.eof()
                           and self.text[self.pos] not in _WS + ">/"):
                        self.pos += 1
                    value = self.text[start:self.pos]
            if name in seen:
                self.violate(6, name_off, f"duplicate attribute {name!r}")
                continue
            seen.add(name)
            owner.attributes.append((name, value))

    def parse_close_tag(self, start: int) -> None:
        self.pos += 2  # past </
        name = self.read_name()
        self.skip_ws()
        if self.peek() != ">":
            self.violate(5, self.pos, "attributes are not allowed on close tags")
            end = self.text.find(">", self.pos)
            self.pos = len(self.text) if end < 0 else end + 1
        else:
            self.pos += 1
        if self.stack and self.stack[-1].name == name:
            self.stack.pop()
            return
        open_names = [e.name for e in self.stack]
        if name in open_names:
            self.violate(4, start,
                         f"close tag </{name}> overlaps <{self.stack[-1].name}>")
            while self.stack and self.stack[-1].name != name:
                self.stack.pop()
            if self.stack:
                self.stack.pop()
        else:
            self.violate(2, start, f"close tag </{name}> matches no open tag")

    def parse_open_tag(self, start: int) -> None:
        self.pos += 1  # past <
        name_off = self.pos
        name = self.read_name()
        if not name:
            self.syntax(start, "bare '<' does not start markup")
            return
        if not _valid_name(name):
            self.violate(7, name_off, f"invalid element name {name!r}")
        node = XmlNode.element(name)
        closed = self.parse_attributes(node)
        self.attach(node, start)
        if not closed:
            self.stack.append(node)

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        while not self.eof() and not self.fatal:
            c = self.text[self.pos]
            if c != "<":
                self.parse_text_run()
                continue
            start = self.pos
            if self.peek(4) == "<!--":
                self.parse_comment(start)
            elif self.peek(9) == "<![CDATA[":
                self.parse_cdata(start)
            elif self.peek(2) == "<!":
                self.parse_dtd(start)
            elif self.peek(2) == "<?":
                self.parse_pi(start)
            elif self.peek(2) == "</":
                self.parse_close_tag(start)
            else:
                self.parse_open_tag(start)
        for node in reversed(self.stack):
            self.violate(2, len(self.text), f"<{node.name}> is never closed")
        if self.root is None and not self.fatal:
            self.violate(1, len(self.text), "no root element")


def oracle_parse_xml(text: str) -> XmlDocument:
    """parse_xml(text) as the per-character parser did it."""
    p = _Parser(text, collect=False)
    p.run()
    assert p.root is not None
    return XmlDocument(p.root, p.prolog)


def oracle_check_well_formed(text: str) -> WellFormednessReport:
    """check_well_formed(text) as the per-character parser did it."""
    p = _Parser(text, collect=True)
    p.run()
    return WellFormednessReport(p.violations)
