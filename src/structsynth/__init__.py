"""Verifier-guided synthesis of database scripts from natural-language asks.

The pipeline extracts a dependency graph from the prompt, retrieves API
evidence, generates a candidate program, and pushes it through a staged
verifier; a repair controller regenerates with the verifier's diagnosis
until the program passes or the budget runs out. Accepted
programs carry a closed-form uncertainty score and can be executed against
a mock object database.
"""
