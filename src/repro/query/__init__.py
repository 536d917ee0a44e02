"""Query engine: predicate AST, evaluation, previews, and parsing (§4.2)."""

from .ast import (
    And,
    Cardinality,
    ValueIn,
    HasProperty,
    HasValue,
    Not,
    Or,
    Path,
    PathStep,
    PathValue,
    Predicate,
    QueryContext,
    Range,
    TextMatch,
    TypeIs,
)
from .engine import QueryEngine
from .parser import QueryParseError, QueryParser, split_path_spec
from .preview import RangePreview
from .simplify import simplify

__all__ = [
    "And",
    "Cardinality",
    "HasProperty",
    "HasValue",
    "Not",
    "Or",
    "Path",
    "PathStep",
    "PathValue",
    "Predicate",
    "QueryContext",
    "Range",
    "TextMatch",
    "TypeIs",
    "ValueIn",
    "QueryEngine",
    "QueryParseError",
    "QueryParser",
    "RangePreview",
    "simplify",
    "split_path_spec",
]
