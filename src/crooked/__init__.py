"""Crooked multinomial construction and verification over GF(2^n).

Submodules: field (GF(2^n) arithmetic, trace-form masks), gf2mat (GF(2)
echelon form and packed ranks), vbf (truth tables, differential/crooked
analysis), spectral (Walsh transforms), families (the two crooked
constructions, their linearized-map test, Gold references, parameter
search), invariants (CCZ invariants and comparisons), funcfile (canonical
JSON files), cli.
"""

from .field import FieldCtx, field_create

__all__ = ["FieldCtx", "field_create"]
__version__ = "0.1.0"
