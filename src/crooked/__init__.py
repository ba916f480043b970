"""Crooked multinomial construction and verification over GF(2^n).

Submodules: field (GF(2^n) arithmetic, trace-form masks), gf2mat (batched
and packed GF(2) elimination), vbf (truth tables, differential/crooked
analysis), spectral (Walsh transforms), families (the two crooked
constructions, their linearized-map test, Gold references, parameter
search), invariants (CCZ invariants and comparisons), cli (the command
line and its canonical JSON function files).
"""

from .field import FieldCtx

__all__ = ["FieldCtx"]
__version__ = "0.1.0"
