"""Desk-scale simulator of a ballistic photonic cluster-state architecture.

Modules:
  graphstate  — graph-state engine with per-vertex local Cliffords
  dense       — brute-force stabilizer oracle for <= 12 qubits
  clifford    — the 24 single-qubit Clifford operators and their tables
  fock        — small-photon-number linear-optics oracle
  fusion      — heralded Type-II fusion parameters and ancilla cost
  builder     — unit-cell wiring and wafer assembly into a 3D lattice
  percolation — crossing checks, square-lattice crossing, windowed pathfinding
  multiplex   — photon streams, delay networks, matching and yields
  losstol     — loss-tolerant encoded wires and spliceable gadgets
  cli         — seeded, parallel, deterministic experiment harness
"""

from .errors import (
    BallisticError,
    CapacityError,
    ShapeError,
    SpecError,
    VertexStateError,
)
from .graphstate import GraphRegister, lc_equivalent
from .dense import DenseStabilizerState, from_graph_register
from .fock import (
    FockState,
    Interferometer,
    apply_interferometer,
    detection_probability,
    type2_fusion_success_probability,
)
from .fusion import FusionParams
from .builder import (
    BuiltLattice,
    UnitCellSpec,
    WaferSpec,
    build_wafer,
    build_wafers,
    optical_depth_report,
)
from .percolation import (
    PathfindingState,
    crossing_exists,
    crossings,
    find_paths_windowed,
    largest_component_fraction,
    square_lattice_crosses,
    sustained_layers,
)
from .multiplex import (
    DelayNetwork,
    DtpParams,
    MatchedPair,
    PhotonStream,
    delivered_pairs,
    dtp_success_prob,
    extinction_to_z_error,
    matching_rmux,
    route_with_delays,
    sliding_window_match,
    standard_mux_prob,
    standard_mux_pair_yield,
    yield_curve,
)
from .losstol import (
    CrazyGraphSpec,
    build_crazy_graph,
    build_ring_block,
    build_s_gadget,
    simulate_teleport,
    teleport_success_prob,
    verify_ring_block_equivalence,
    verify_s_gadget,
)
from .rng import run_rng, trial_rng

__version__ = "0.1.0"
