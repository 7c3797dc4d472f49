"""HTML substrate: DOM, one-pass tree builder, serializer.

This package replaces lxml / BeautifulSoup (not available offline) with a
purpose-built parser whose output is exactly the tree structure the MSE
pipeline consumes.
"""

from repro.htmlmod.dom import Comment, Document, Element, Node, Text, collapse_whitespace
from repro.htmlmod.parser import VOID_ELEMENTS, parse_html
from repro.htmlmod.serializer import serialize, serialize_node

__all__ = [
    "Comment",
    "Document",
    "Element",
    "Node",
    "Text",
    "collapse_whitespace",
    "parse_html",
    "serialize",
    "serialize_node",
    "VOID_ELEMENTS",
]
