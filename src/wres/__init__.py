"""Exact noncommutative-residue calculus for statistical Hodge operators.

The package computes interior residue densities and boundary case tables
for drift-perturbed de Rham operators over symbolic coefficient rings,
with an independent floating-point oracle and a deterministic CLI.

The package root holds only `__version__`.  Every other name is imported
from the module that defines it, for example
`from wres.boundary import boundary_phi`, so importing an engine module
loads only the standard library and the engine modules it uses.
"""

__version__ = "0.1.0"
