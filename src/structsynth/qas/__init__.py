"""A small indentation-delimited scripting language over design-database APIs.

Public surface: parse / Script / SyntaxFailure, the normalizing serializer,
statement-set normalization for similarity measures, type inference, and
``analyze``, which parses, types and fingerprints a program once.
"""

from .analysis import (
    CallSite,
    Candidate,
    Operation,
    TypedScript,
    UndefinedUse,
    analyze,
    infer_types,
    normalize_statements,
)
from .parser import Script, SyntaxFailure, SyntaxIssue, parse
from . import nodes

__all__ = [
    "CallSite",
    "Candidate",
    "Operation",
    "Script",
    "SyntaxFailure",
    "SyntaxIssue",
    "TypedScript",
    "UndefinedUse",
    "analyze",
    "infer_types",
    "nodes",
    "normalize_statements",
    "parse",
]
