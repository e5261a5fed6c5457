"""Verifier-guided synthesis of database scripts from natural-language asks.

The pipeline extracts a dependency graph from the prompt, retrieves API
evidence, generates a candidate program, and pushes it through a staged
verifier; a repair controller decides between regenerating, re-retrieving
evidence, and re-extracting the graph until the budget runs out. Accepted
programs carry a closed-form uncertainty score and can be executed against
a mock object database.
"""
