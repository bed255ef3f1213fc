"""Measurement-based simulation of unitary circuits.

Gate teleportation gadgets, an adapted T gadget driven by a 16-row
measurement table, and three byproduct-handling engines (retry loops,
one postponed dense correction, software Pauli-frame tracking), all
checked against direct state-vector evolution.
"""

__version__ = "0.1.0"
