"""A small indentation-delimited scripting language over design-database APIs.

Submodules: ``lexer`` splits source into tokens; ``parser`` builds a
``Script`` or a ``SyntaxFailure`` value; ``nodes`` holds the AST node types
and the normalizing serializer; ``analysis`` infers types, normalizes
statements for similarity measures, and holds ``analyze``, which parses,
types and fingerprints a program once.
"""
