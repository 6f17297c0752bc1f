"""Qubit and spin-1 operator constants.

Basis conventions used across the package:

* Qubit: ``|0>`` is the upper level of ``H = omega*sigma_z/2`` (energy
  +omega/2), ``|1>`` the lower.  Consequently ``sigma_plus = |0><1|`` raises
  energy and ``sigma_minus = |1><0|`` lowers it.
* Qutrit: basis ordered by magnetic number m = (+1, 0, -1), so index 0 is the
  top level and index 2 the bottom.  ``S_z = diag(1, 0, -1)`` and the ladder
  operators ``Q_pm = (S_x +- i S_y)/2`` move one step up/down with matrix
  elements 1/sqrt(2).

In both bases the last index, ``dim - 1``, is the bottom level, where every
ancilla starts.  The ladder operators appear only inside the closed-form
collision unitaries of :mod:`colltherm.channels`; this module keeps the
rotation generators, looked up as ``GENERATORS[dim][axis]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SX", "SY", "SZ", "S1X", "S1Y", "S1Z", "GENERATORS"]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_s = 1.0 / np.sqrt(2.0)
S1X = np.array([[0, _s, 0], [_s, 0, _s], [0, _s, 0]], dtype=complex)
S1Y = np.array([[0, -1j * _s, 0], [1j * _s, 0, -1j * _s], [0, 1j * _s, 0]], dtype=complex)
S1Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

# rotation generator per ancilla dimension and axis: Pauli for a qubit,
# spin 1 for a qutrit
GENERATORS = {
    2: {"x": SX, "y": SY, "z": SZ},
    3: {"x": S1X, "y": S1Y, "z": S1Z},
}
