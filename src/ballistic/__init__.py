"""Desk-scale simulator of a ballistic photonic cluster-state architecture.

Modules:
  graphstate  — graph-state engine with per-vertex local Cliffords
  dense       — brute-force stabilizer oracle for <= 12 qubits
  clifford    — the 24 single-qubit Clifford operators and their tables
  fock        — small-photon-number linear-optics oracle
  fusion      — boosted Type-II fusion parameters and ancilla cost
  builder     — unit-cell wiring and wafer assembly into a 3D lattice
  percolation — crossing checks, square-lattice crossing, windowed pathfinding
  multiplex   — photon streams, delay networks, matching and yields
  losstol     — loss-tolerant encoded wires and spliceable gadgets
  cli         — seeded, parallel, deterministic experiment harness

The package binds only `__version__`: import the module you need, as in
`from ballistic import cli`.
"""

__version__ = "0.1.0"
