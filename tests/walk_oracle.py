"""The enter/leave tree walker that xml_model.walk replaced, kept as a
reference for the oracles and tests that read its events."""

from __future__ import annotations

from typing import Iterator

from xstring.xml_model import XmlNode


def walk(root: XmlNode) -> Iterator[tuple[XmlNode, bool]]:
    """Yield (node, True) on entering and (node, False) on leaving each
    node of the subtree at root, in document order, keeping the open nodes
    on an explicit stack instead of recursing.  A node's children are read
    between its two events, so a consumer may replace them on leave."""
    yield root, True
    stack = [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        for child in children:
            yield child, True
            if child.children:
                stack.append((child, iter(child.children)))
                break
            yield child, False
        else:
            stack.pop()
            yield node, False
