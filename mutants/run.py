"""Mutation check: every mutant must make the tests it names fail.

A mutant is one exact text replacement in one file under `src/` or `tests/`,
with the pytest node ids that must fail once it is applied.  For each mutant
`run.py` copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies the replacement there and runs pytest on the named ids.
The repository itself is never written.

A mutant is killed when pytest exits 1 and every named test failed.  A name
without a parameter id counts as failed when at least one of its
parametrized cases failed.  A mutant survives when pytest exits 0, or exits
1 with a named test passing.  Anything else means the check is broken, not
that a test is weak, and stops `run.py` with exit code 2: old text missing
from its file or found more than once, a test id pytest cannot find or a
mutant that breaks collection (pytest exit 4 or 2), a pytest run past
TIMEOUT seconds, or the named tests failing before any mutant is applied.

Run from the repository root (standard library only; the 97 mutants take
about 60 s on two cores, with one pytest run per usable core at a time):

    python3 mutants/run.py

Exit codes: 0 every mutant killed, 1 some survived, 2 the check is broken.
Its own tests: python3 -m pytest -q mutants/tests
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 600  # seconds per pytest run
JOBS = len(os.sched_getaffinity(0))  # pytest runs at a time


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # below the repository root, in src/ or tests/
    old: str  # exact text, found exactly once in `file`
    new: str
    tests: tuple  # pytest node ids that must all fail


@dataclass(frozen=True)
class Result:
    name: str
    killed: bool
    detail: str
    seconds: float


class BrokenCheck(Exception):
    """The check itself is broken, so the run says nothing about the tests."""


BUILDER = "src/ballistic/builder.py"
GRAPHSTATE = "src/ballistic/graphstate.py"
GRAPH_TESTS = "tests/test_graphstate.py::"
ORACLE_AGREES = "tests/test_builder.py::test_build_modes_agree"
PERCOLATION = "src/ballistic/percolation.py"
CSR_AGREES = "tests/test_percolation.py::test_csr_adjacency_matches_edge_list"
OLD_CROSSINGS = "tests/test_percolation.py::test_crossings_match_old_labelling"
LABELS_AGREE = "tests/test_percolation.py::test_labels_partition_matches_scipy"
REACH_CASES = "tests/test_percolation.py::test_reach_score_lead_checks_and_best_first_search"
ROUTER_LEADS = "tests/test_percolation.py::test_reach_score_on_router_shaped_leads"
KEPT_WITNESSES = "tests/test_percolation.py::test_router_keeps_witnesses_that_need_no_check"
OLD_ROUTES = "tests/test_percolation.py::test_router_matches_old_router"
PATHS_AGREE = ("tests/test_percolation.py::test_lossy_pathfinding_golden", OLD_ROUTES)
REACH_AGREES = (REACH_CASES, ROUTER_LEADS)
WORD_BOUNDARY = "tests/test_builder.py::test_bernoulli_compares_words_at_the_boundary"
DENSE_UPDATES = "tests/test_dense.py::test_updates_match_tuple_keyed_reference"
ROWS_TOGETHER = "tests/test_multiplex.py::test_yield_curve_routes_rows_together_exactly"
FOCK = "src/ballistic/fock.py"
FUSION_RATES = ("tests/test_fock.py::test_fusion_success_probabilities",
                "tests/test_acceptance.py::test_c02_fusion_success_via_photon_oracle")

MUTANTS = (
    # -- the bond-level build, which only the graph-level oracle checks
    #    photon by photon
    Mutant(
        "herald-local-partner", BUILDER,
        "attached[ls] & _shift_ok(~usable[..., rs], off)",
        "attached[ls] & _shift_ok(~usable[..., ls], off)",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "herald-remote-shift", BUILDER,
        "a_remote & ~usable[..., ls], [-d for d in off]",
        "a_remote & ~usable[..., ls], off",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "slot-masks-end-damage", BUILDER,
        "damaged[..., 0] = trio[..., 1]",
        "damaged[..., 0] = trio[..., 0]",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "slot-masks-middle-damage", BUILDER,
        "np.logical_or(trio[..., 0], trio[..., 2], out=damaged[..., 1])",
        "np.logical_and(trio[..., 0], trio[..., 2], out=damaged[..., 1])",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "slot-masks-filter-ignored", BUILDER,
        "    usable &= kept\n",
        "",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "bond-edges-stride", BUILDER,
        "2 * ((ox * spec.ny + oy) * spec.nz + oz)",
        "2 * ((ox * spec.nx + oy) * spec.nz + oz)",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "bond-edges-parity", BUILDER,
        "_PARITY[rs] - _PARITY[ls]\n",
        "_PARITY[ls] - _PARITY[rs]\n",
        (ORACLE_AGREES,),
    ),
    Mutant(
        "shift-ok-direction", BUILDER,
        "src[axis], dst[axis] = slice(d, None), slice(None, -d)",
        "src[axis], dst[axis] = slice(None, -d), slice(d, None)",
        (ORACLE_AGREES,),
    ),
    # -- the oracle itself: a ballistic survivor Z-measured cleanly instead
    #    of dropped as lost, so no loss herald damages its qubit
    Mutant(
        "oracle-bond-survivor-kept", "tests/graph_oracle.py",
        "            for v in alive_pair:\n                lose(reg, v, unknown)",
        '            for v in alive_pair:\n                reg.measure_pauli(v, "Z", rng)',
        (ORACLE_AGREES,),
    ),
    # -- the oracle's loss rule: a lost photon's neighbours keep their
    #    byproduct frames known, so they stay in the punched view
    Mutant(
        "oracle-loss-frame-kept", "tests/graph_oracle.py",
        "    unknown.update(reg.neighbors(v))\n",
        "",
        (ORACLE_AGREES,),
    ),
    # -- the rest of the build
    Mutant(
        "batch-draws-reversed", BUILDER,
        "for spec, rng in zip(specs, rngs)]",
        "for spec, rng in zip(specs, rngs)][::-1]",
        ("tests/test_builder.py::test_build_wafers_matches_sequential_builds",),
    ),
    Mutant(
        "batch-split-off-by-one", BUILDER,
        "np.arange(nb, wafers * nb, nb)",
        "np.arange(nb - 1, wafers * nb, nb)",
        ("tests/test_builder.py::test_build_wafers_matches_sequential_builds",),
    ),
    Mutant(
        "batches-budget-boundary", BUILDER,
        "cells + spec.cells > BATCH_CELLS",
        "cells + spec.cells >= BATCH_CELLS",
        ("tests/test_builder.py::test_batches_keep_to_the_cell_budget",),
    ),
    Mutant(
        "bond-pairs-stub-twice", BUILDER,
        "    (11, 15, (0, 1, 0)),\n",
        "    (11, 12, (0, 1, 0)),\n",
        ("tests/test_builder.py::test_bond_wirings_fuse_every_stub_once",),
    ),
    # -- fusion: every attempt, formation and bond alike, consumes ancillas
    Mutant(
        "ancillas-every-kind", BUILDER,
        "    ancillas = fusions * ANCILLA_COST\n",
        "    ancillas = cells * len(BOND_PAIRS) * ANCILLA_COST\n",
        ("tests/test_builder.py::test_resource_report_counts",
         "tests/test_builder.py::test_with_ancilla_figure_counts_only_consumed_ancillas"),
    ),
    # -- the optional |+> filter: None draws nothing, a fidelity draws it
    Mutant(
        "filter-none-inverted", BUILDER,
        "    if spec.filter_fidelity is None:\n",
        "    if spec.filter_fidelity is not None:\n",
        ("tests/test_builder.py::test_filter_limits",
         "tests/test_builder.py::test_every_wafer_field_changes_the_lattice_or_is_rejected"),
    ),
    Mutant(
        "filter-draw-dropped", BUILDER,
        "        kept = bernoulli(rng, slots, spec.filter_fidelity)\n",
        "        kept = np.ones(slots, dtype=bool)\n",
        ("tests/test_builder.py::test_filter_limits",
         "tests/test_builder.py::test_filter_reduces_alive_fraction",
         "tests/test_builder.py::test_every_wafer_field_changes_the_lattice_or_is_rejected"),
    ),
    Mutant(
        "graph-level-accepted", BUILDER,
        "    if graph_level:\n",
        "    if graph_level is None:\n",
        ("tests/test_builder.py::test_graph_level_build_is_rejected",),
    ),
    # -- percolation
    Mutant(
        "labels-union-offset", PERCOLATION,
        "[ei + i * n for i, ei in enumerate(edges)]",
        "[ei + i * (n - 1) for i, ei in enumerate(edges)]",
        (OLD_CROSSINGS, LABELS_AGREE),
    ),
    Mutant(
        "labels-edge-filter-or", PERCOLATION,
        "alive[e[:, 0]] & alive[e[:, 1]], axis=0",
        "alive[e[:, 0]] | alive[e[:, 1]], axis=0",
        (OLD_CROSSINGS, LABELS_AGREE),
    ),
    # one hook round leaves edges between components unresolved
    Mutant(
        "labels-one-hook-round", PERCOLATION,
        "    while len(lo):\n",
        "    if len(lo):\n",
        (LABELS_AGREE,),
    ),
    # one pointer jump per round leaves chains; labels only ever fall, so the
    # rounds still end
    Mutant(
        "labels-one-jump", PERCOLATION,
        "            if np.array_equal(jumped, lab):\n                break\n            lab = jumped\n",
        "            lab = jumped\n            break\n",
        (OLD_CROSSINGS, LABELS_AGREE),
    ),
    Mutant(
        "crossings-dead-top-kept", PERCOLATION,
        "top = lab[:, :, :, -1][alive.reshape(shape)[:, :, :, -1]]",
        "top = lab[:, :, :, -1]",
        (OLD_CROSSINGS,),
    ),
    Mutant(
        "crossings-wrong-face", PERCOLATION,
        "crossed = np.isin(lab[:, :, :, 0], top)",
        "crossed = np.isin(lab[:, :, :, -1], top)",
        (OLD_CROSSINGS,),
    ),
    # -- adjacency: both directions of each edge whose two ends are alive
    Mutant(
        "csr-reverse-key-target", PERCOLATION,
        "keys[m:] |= a",
        "keys[m:] |= b",
        (CSR_AGREES,),
    ),
    Mutant(
        "csr-keep-either-end-alive", PERCOLATION,
        "keep = alive[e[:, 0]] & alive[e[:, 1]]",
        "keep = alive[e[:, 0]] | alive[e[:, 1]]",
        (CSR_AGREES,),
    ),
    # -- pathfinding: the window reaches `window` layers back, a step keeps
    #    its first best-scoring candidate (the start is a step, so this
    #    covers its tie-break too), a witness must reach layer z_hi, the
    #    parent chain ends at the node it was asked for, and a wire starts
    #    at a layer-0 node no earlier wire used
    Mutant(
        "window-low-edge-short", PERCOLATION,
        "z_lo = max(0, z - window)",
        "z_lo = max(0, z - window + 1)",
        PATHS_AGREE,
    ),
    Mutant(
        "step-keeps-last-best", PERCOLATION,
        "if score > best_score:",
        "if score >= best_score:",
        PATHS_AGREE,
    ),
    Mutant(
        "start-ignores-used", PERCOLATION,
        "candidates = [v for v in layer0 if v not in used]",
        "candidates = list(layer0)",
        ("tests/test_percolation.py::test_wires_are_vertex_disjoint",) + PATHS_AGREE,
    ),
    Mutant(
        "reach-lead-witness-short", PERCOLATION,
        "return z_max, len(nodes), ()",
        "return z_max, len(nodes) - 1, ()",
        (REACH_CASES, KEPT_WITNESSES),
    ),
    # -- the search's shortcuts: the tip step keeps out of the hop chain
    #    and `used`, a spliced witness keeps its trail prefix whole, and the
    #    stacked lead is searched when no bucket holds a node
    Mutant(
        "reach-tip-step-enters-hop", PERCOLATION,
        "if layer[w] == z_hi and w not in used and w not in hop:",
        "if layer[w] == z_hi and w not in used:",
        (REACH_CASES, ROUTER_LEADS, OLD_ROUTES),
    ),
    Mutant(
        "reach-tip-step-enters-used", PERCOLATION,
        "if layer[w] == z_hi and w not in used and w not in hop:",
        "if layer[w] == z_hi and w not in hop:",
        REACH_AGREES,
    ),
    Mutant(
        "chain-splice-short", PERCOLATION,
        "return zw, ~end + 1, out",
        "return zw, ~end, out",
        REACH_AGREES + (KEPT_WITNESSES,),
    ),
    Mutant(
        "reach-lead-dropped-without-bucket", PERCOLATION,
        "if k > lo and (b == nb or layer[nodes[k - 1]] + b >= z_hi - 1):",
        "if k > lo and b < nb and layer[nodes[k - 1]] + b >= z_hi - 1:",
        REACH_AGREES,
    ),
    Mutant(
        "chain-drops-last-node", PERCOLATION,
        "    out.reverse()\n",
        "    out.reverse()\n    out.pop()\n",
        ("tests/test_percolation.py::test_lossy_pathfinding_golden",),
    ),
    # -- an off-trail search joins the trail at the first trail node it
    #    files, only when that node's lead passes the trail's checks, takes
    #    the lead from the next node on, and tries to join only once
    Mutant(
        "join-without-leads", PERCOLATION,
        "                if not trail.leads(hop, i, z_lo):\n",
        "                if False:\n",
        (REACH_CASES, KEPT_WITNESSES, OLD_ROUTES),
    ),
    Mutant(
        "join-keeps-its-node", PERCOLATION,
        "lo, k = i + 1, len(nodes)",
        "lo, k = i, len(nodes)",
        (REACH_CASES, KEPT_WITNESSES, OLD_ROUTES),
    ),
    # a second join could only pass further along the trail, past every
    # trail node the chain holds, so its witness is valid too and only the
    # exact witnesses of the reach cases tell it
    Mutant(
        "join-again-after-refusal", PERCOLATION,
        "                    seen = {}\n",
        "                    pass\n",
        (REACH_CASES,),
    ),
    # -- the trail: a lead is dropped when the hop chain or layer z_lo - 1
    #    meets it, a low node before the start does not count, and the
    #    index map follows the nodes the witness keeps
    Mutant(
        "trail-hop-check-dropped", PERCOLATION,
        "            if at.get(h, -1) > j:\n",
        "            if at.get(h, -1) > len(self.nodes):\n",
        (REACH_CASES, OLD_ROUTES),
    ),
    Mutant(
        "trail-low-check-dropped", PERCOLATION,
        "low = self.count[z_lo - 1] if z_lo else 0",
        "low = 0",
        (REACH_CASES,),
    ),
    Mutant(
        "trail-prefix-not-subtracted", PERCOLATION,
        "            for w in self.nodes[self.start:j]:\n",
        "            for w in ():\n",
        (REACH_CASES,),
    ),
    Mutant(
        "trail-index-off-by-one", PERCOLATION,
        "at.update(zip(tail, range(cut, cut + len(tail))))",
        "at.update(zip(tail, range(cut + 1, cut + 1 + len(tail))))",
        (KEPT_WITNESSES,),
    ),
    # an equivalent mutant: the inline draw gives the same bonds, so only
    # the guard on array draws outside `rng.bernoulli` can kill it
    Mutant(
        "square-lattice-draw-inline", PERCOLATION,
        "keep = bernoulli(rng, 2 * m, p)",
        "keep = rng.random(2 * m) < p",
        ("tests/test_api_surface.py::test_array_draws_go_through_bernoulli",),
    ),
    # the crossing read off the labels: right-column labels marked, then
    # read at the left column
    Mutant(
        "square-crossing-wrong-column", PERCOLATION,
        "right[lab[::2, -1]] = True",
        "right[lab[::2, 0]] = True",
        ("tests/test_percolation.py::test_square_lattice_crosses_matches_old_family",),
    ),
    # -- fusion: boosted Type-II is the one kind
    Mutant(
        "fusion-kind-typeii-accepted", "src/ballistic/fusion.py",
        'if self.kind != "BoostedTypeII":',
        'if self.kind not in ("BoostedTypeII", "TypeII"):',
        ("tests/test_fusion.py::test_unknown_kind_rejected",
         "tests/test_cli.py::test_fusion_kind_message_says_vary_success_prob",
         "tests/test_builder.py::test_every_wafer_field_changes_the_lattice_or_is_rejected"),
    ),
    # -- rng: a probability outside [0, 1] or NaN is rejected, not drawn
    Mutant(
        "bernoulli-range-unchecked", "src/ballistic/rng.py",
        "    if not 0.0 <= p <= 1.0:\n",
        "    if p < 0.0 or p > 1.0:\n",
        ("tests/test_builder.py::test_bernoulli_rejects_non_probabilities",),
    ),
    # -- rng: skipping fixed-outcome draws
    Mutant(
        "bernoulli-head-short", "src/ballistic/rng.py",
        'head = min(words, block - state["buffer_pos"])',
        'head = min(words, block - state["buffer_pos"] - 1)',
        ("tests/test_builder.py::test_bernoulli_matches_plain_draws",),
    ),
    Mutant(
        "bernoulli-tail-dropped", "src/ballistic/rng.py",
        "    if tail:\n",
        "    if tail > 1:\n",
        ("tests/test_builder.py::test_bernoulli_matches_plain_draws",),
    ),
    Mutant(
        "bernoulli-fixed-value", "src/ballistic/rng.py",
        "np.full(shape, p >= 1)",
        "np.full(shape, p > 1)",
        ("tests/test_builder.py::test_bernoulli_matches_plain_draws",
         "tests/test_cli.py::test_scenario_golden[mux-yield-p1]",
         "tests/test_cli.py::test_scenario_golden[threshold-scan-edges]"),
    ),
    # -- rng: raw words compared against ceil(p * 2^53) << 11, in chunks;
    #    only a draw on the boundary tells ceil from floor
    Mutant(
        "bernoulli-limit-floor", "src/ballistic/rng.py",
        "-int(-p * 2.0**53 // 1) << 11",
        "int(p * 2.0**53 // 1) << 11",
        (WORD_BOUNDARY,),
    ),
    Mutant(
        "bernoulli-chunk-end-short", "src/ballistic/rng.py",
        "hi = min(lo + CHUNK, words)",
        "hi = min(lo + CHUNK - 1, words)",
        (WORD_BOUNDARY, "tests/test_builder.py::test_bernoulli_matches_plain_draws"),
    ),
    Mutant(
        "bernoulli-chunk-not-redrawn", "src/ballistic/rng.py",
        "np.less(bitgen.random_raw(hi - lo), limit, out=flat[lo:hi])",
        "np.less(raw[:hi - lo] if lo else (raw := bitgen.random_raw(hi - lo)),"
        " limit, out=flat[lo:hi])",
        (WORD_BOUNDARY, "tests/test_builder.py::test_bernoulli_matches_plain_draws"),
    ),
    # -- multiplex: the one any-of-k law, the sliding sweep behind the
    #    yield curves, the one route that prunes its plan, the rows of a
    #    yield curve routed together in their own time stretches, the
    #    pair-list matcher composed of the sweep and that route, and the
    #    range check on a sampled stream's generation probability
    Mutant(
        "herald-attempts-unchecked", "src/ballistic/multiplex.py",
        "attempts < 1",
        "attempts < 0",
        ("tests/test_multiplex.py::test_dtp_validation",),
    ),
    Mutant(
        "sliding-sweep-slot-reused", "src/ballistic/multiplex.py",
        "            ib.append(x)\n            x += 1\n",
        "            ib.append(x)\n",
        ("tests/test_multiplex.py::test_multiplex_golden",
         "tests/test_multiplex.py::test_yield_curve_matches_pair_list_pipeline"),
    ),
    Mutant(
        "sliding-sweep-high-exclusive", "src/ballistic/multiplex.py",
        'np.searchsorted(b, a + max_delay, "right")',
        "np.searchsorted(b, a + max_delay)",
        ("tests/test_multiplex.py::test_sliding_window_match_examples",),
    ),
    Mutant(
        "route-keeps-one-of-collision", "src/ballistic/multiplex.py",
        "keep[order[1:][same]] = keep[order[:-1][same]] = False",
        "keep[order[1:][same]] = False",
        ("tests/test_multiplex.py::test_route_with_delays_output_collision",),
    ),
    Mutant(
        "yield-curve-matching-unrouted", "src/ballistic/multiplex.py",
        '"matching_yield": n / bin_count,',
        '"matching_yield": len(starts[len(rows) - g]) / bin_count,',
        ("tests/test_multiplex.py::test_multiplex_golden",
         "tests/test_multiplex.py::test_yield_curve_matches_pair_list_pipeline"),
    ),
    Mutant(
        "yield-rows-share-time", "src/ballistic/multiplex.py",
        "starts.append(pa + i * bin_count)",
        "starts.append(pa + i * (bin_count - 1))",
        (ROWS_TOGETHER,),
    ),
    Mutant(
        "yield-rows-offset-across-groups", "src/ballistic/multiplex.py",
        "for i, S in enumerate(group):",
        "for i, S in enumerate(group, g):",
        (ROWS_TOGETHER,),
    ),
    Mutant(
        "matching-rmux-unrouted", "src/ballistic/multiplex.py",
        "return delivered_pairs(stream_a, pairs, network)[0]",
        "return pairs",
        ("tests/test_multiplex.py::test_matching_dominates_sliding_fuzz",
         "tests/test_multiplex.py::test_matching_rmux_matches_old_regrow"),
    ),
    Mutant(
        "delivered-pairs-keeps-collided", "src/ballistic/multiplex.py",
        "kept = [pr for pr, b in zip(pairs, keys) if b not in destroyed]",
        "kept = list(pairs)",
        ("tests/test_multiplex.py::test_delivered_pairs_prunes_collisions",
         "tests/test_multiplex.py::test_matching_rmux_matches_old_regrow",
         "tests/test_multiplex.py::test_yield_curve_matches_pair_list_pipeline"),
    ),
    # -- losstol: column counts that a byte cannot hold, and the fair coin
    #    that settles a tied majority vote
    Mutant(
        "teleport-counts-in-a-byte", "src/ballistic/losstol.py",
        "    counts = np.empty(len(rows), dtype=np.float32)\n"
        "    ones = np.ones(L, dtype=np.float32)\n",
        "    counts = np.empty(len(rows), dtype=np.uint8)\n"
        "    ones = np.ones(L, dtype=np.uint8)\n",
        ("tests/test_losstol.py::test_column_counts_match_plain_sums",),
    ),
    Mutant(
        "tie-coin-biased", "src/ballistic/losstol.py",
        "coin = bernoulli(rng, (trials, N), 0.5 if spec.z_flip else 0.0)",
        "coin = bernoulli(rng, (trials, N), 0.25 if spec.z_flip else 0.0)",
        ("tests/test_losstol.py::test_flip_rate_matches_analytic_oracle",
         "tests/test_losstol.py::test_even_flip_rate_matches_analytic_oracle",
         "tests/test_cli.py::test_scenario_golden[crazy-teleport-z-flip]"),
    ),
    Mutant(
        "tie-counted-as-flip", "src/ballistic/losstol.py",
        "col_wrong = (twice > survivors) | (tie & coin[lo:lo + step])",
        "col_wrong = (twice > survivors) | tie",
        ("tests/test_losstol.py::test_flip_rate_matches_analytic_oracle",
         "tests/test_losstol.py::test_even_flip_rate_matches_analytic_oracle"),
    ),
    Mutant(
        "teleport-coins-skipped-with-flips", "src/ballistic/losstol.py",
        "0.5 if spec.z_flip else 0.0",
        "0.0 if spec.z_flip else 0.5",
        ("tests/test_losstol.py::test_even_flip_rate_matches_analytic_oracle",
         "tests/test_cli.py::test_scenario_golden[crazy-teleport-z-flip]"),
    ),
    # -- losstol: each block of trials votes with its own coins
    Mutant(
        "teleport-block-reuses-first-coins", "src/ballistic/losstol.py",
        "(tie & coin[lo:lo + step])",
        "(tie & coin[:len(tie)])",
        ("tests/test_losstol.py::test_teleport_blocks_match_one_block",),
    ),
    # -- acceptance: the one threshold bisection
    Mutant(
        "bisect-half-sides-swapped", "src/ballistic/acceptance.py",
        "            b = mid\n        else:\n            a = mid\n",
        "            a = mid\n        else:\n            b = mid\n",
        ("tests/test_percolation.py::test_bisect_half_matches_old_estimate_threshold",),
    ),
    Mutant(
        "bisect-half-falling-bracket", "src/ballistic/acceptance.py",
        "else (f_lo > 0.5 > f_hi)",
        "else (f_lo < 0.5 < f_hi)",
        ("tests/test_percolation.py::test_bisect_half_matches_old_spanning_bisection",),
    ),
    # -- dense oracle and sparse engine
    Mutant(
        "dense-reduce-x-only", "src/ballistic/dense.py",
        "for sel in (1, 2):",
        "for sel in (1,):",
        ("tests/test_dense.py::test_dense_oracle_golden",),
    ),
    Mutant(
        "dense-reduce-below-only", "src/ballistic/dense.py",
        "            for i, row in enumerate(work):\n                if i != r and",
        "            for i, row in enumerate(work[r + 1:], r + 1):\n                if i != r and",
        ("tests/test_dense.py::test_dense_oracle_golden",),
    ),
    # the conjugation tables read by a row's bit pattern
    Mutant(
        "dense-cz-index-swapped", "src/ballistic/dense.py",
        "(x >> a & 1) << 3 | (z >> a & 1) << 2 | (x >> b & 1) << 1 | z >> b & 1",
        "(x >> b & 1) << 3 | (z >> b & 1) << 2 | (x >> a & 1) << 1 | z >> a & 1",
        (DENSE_UPDATES, "tests/test_dense.py::test_dense_oracle_golden"),
    ),
    Mutant(
        "dense-cz-phase-dropped", "src/ballistic/dense.py",
        "z >> b & 1\n            ]\n            row[0] = (row[0] + d) & 3\n",
        "z >> b & 1\n            ]\n",
        (DENSE_UPDATES, "tests/test_dense.py::test_dense_oracle_golden"),
    ),
    Mutant(
        "dense-clifford-phase-dropped", "src/ballistic/dense.py",
        "z >> q & 1]\n            row[0] = (row[0] + d) & 3\n",
        "z >> q & 1]\n",
        (DENSE_UPDATES, "tests/test_dense.py::test_dense_oracle_golden"),
    ),
    Mutant(
        "complement-one-side", GRAPHSTATE,
        "        adj[u] ^= nbrs - {u}\n",
        "        adj[u] ^= {v for v in nbrs if v > u}\n",
        (GRAPH_TESTS + "test_lc_equivalent_examples",
         GRAPH_TESTS + "test_lc_equivalent_matches_frozenset_reference"),
    ),
    Mutant(
        "kill-keeps-neighbour-links", GRAPHSTATE,
        "        for b in self._adj[a]:\n            self._adj[b].discard(a)\n",
        "",
        (GRAPH_TESTS + "test_from_graph_register_orders_alive_vertices",
         GRAPH_TESTS + "test_lc_equivalent_matches_frozenset_reference"),
    ),
    Mutant(
        "copy-shares-neighbour-sets", GRAPHSTATE,
        "g._adj = [set(nb) for nb in self._adj]",
        "g._adj = list(self._adj)",
        (GRAPH_TESTS + "test_copy_is_independent",),
    ),
    # operators other than 2x2 keyed with their phase; the group closure
    # at import keys 2x2 ones and stops at its assertion without the division
    Mutant(
        "phase-keys-keep-phase", "src/ballistic/clifford.py",
        "    flat = flat * (np.abs(lead) / lead)[:, None]\n",
        "    if ops.shape[1:] == (2, 2):\n"
        "        flat = flat * (np.abs(lead) / lead)[:, None]\n",
        (GRAPH_TESTS + "test_cz_tables_golden",),
    ),
    # the tables each built in one array pass: a Pauli conjugate's sign, the
    # phase the dense oracle reads off a trace, the Kronecker factor order
    Mutant(
        "conj-s-sign-dropped", "src/ballistic/clifford.py",
        "rows(np.rint(conj_s))",
        "rows(np.abs(np.rint(conj_s)))",
        (GRAPH_TESTS + "test_clifford_group_tables",),
    ),
    Mutant(
        "dense-phase-off-by-one", "src/ballistic/dense.py",
        "d = np.rint(np.angle(lead) / (np.pi / 2)).astype(int) % 4",
        "d = (np.rint(np.angle(lead) / (np.pi / 2)).astype(int) + 1) % 4",
        ("tests/test_dense.py::test_local_conj_table_matches_old_search",
         "tests/test_dense.py::test_cz_conj_table_golden"),
    ),
    Mutant(
        "cz-tables-kron-swapped", GRAPHSTATE,
        'np.einsum("iab,jcd->ijacbd", c, c)',
        'np.einsum("iab,jcd->ijcadb", c, c)',
        (GRAPH_TESTS + "test_cz_tables_golden",),
    ),
    # a public method that nothing in the package calls
    Mutant(
        "graphstate-unread-method", GRAPHSTATE,
        '    def copy(self) -> "GraphRegister":\n',
        '    def unread(self) -> None:\n        pass\n\n'
        '    def copy(self) -> "GraphRegister":\n',
        ("tests/test_api_surface.py::test_every_public_name_is_read_by_the_package",),
    ),
    # -- fock: the beamsplitter's reflection phase, which makes it unitary
    #    and two photons bunch; a distinguishable photon on its own copy of
    #    the fusion modes; success as a herald with the rails it heralds
    Mutant(
        "beamsplitter-reflection-sign", FOCK,
        "[1j * math.sin(theta), math.cos(theta)],",
        "[-1j * math.sin(theta), math.cos(theta)],",
        ("tests/test_acceptance.py::test_c01_hom_coincidence_suppression",
         "tests/test_acceptance.py::test_c02_fusion_success_via_photon_oracle"),
    ),
    Mutant(
        "distinguishable-on-shared-modes", FOCK,
        "c0 = 4 + _COPY * distinguishable",
        "c0 = 4",
        FUSION_RATES,
    ),
    Mutant(
        "herald-rail-parity-dropped", FOCK,
        "if heralds.get(_detected(occ)) == occ[1] ^ occ[7]",
        "if _detected(occ) in heralds",
        FUSION_RATES,
    ),
    # -- cli: each trial draws from the stream keyed by (seed, trial), and
    #    every scenario parameter reaches the model
    Mutant(
        "trial-stream-fixed", "src/ballistic/cli.py",
        "rng = trial_rng(seed, trial)",
        "rng = trial_rng(seed, 0)",
        ("tests/test_cli.py::test_run_contract_on_random_configs",),
    ),
    Mutant(
        "crazy-specs-ignore-z-flip", "src/ballistic/cli.py",
        'z_flip = float(params["z_flip"])',
        "z_flip = 0.0",
        ("tests/test_cli.py::"
         "test_every_parameter_changes_metrics_or_is_rejected[crazy-teleport]",),
    ),
    # -- cli: a short pool run spreads its trials over every worker
    Mutant(
        "pool-chunk-fixed", "src/ballistic/cli.py",
        'chunk = max(1, cfg["trials"] // (4 * cfg["threads"]))',
        "chunk = 8",
        ("tests/test_cli.py::test_short_pool_run_reaches_every_worker",),
    ),
    # -- cli: config checks, malformed results and atomic writes
    Mutant(
        "figure-header-unchecked", "src/ballistic/cli.py",
        'cfg = validate_config(dict(header["config"], out=out_dir))',
        'cfg = dict(header["config"], out=out_dir)',
        ("tests/test_cli.py::test_figure_on_malformed_results_exits_2_without_traceback",),
    ),
    Mutant(
        "results-header-unchecked", "src/ballistic/cli.py",
        "if not (isinstance(rec, dict) and isinstance(rec.get(key), dict)):",
        "if count and not (isinstance(rec, dict) and isinstance(rec.get(key), dict)):",
        ("tests/test_cli.py::test_read_results_errors",),
    ),
    Mutant(
        "missing-metric-kept", "src/ballistic/cli.py",
        "        for k in columns.keys() - metrics.keys():\n            del columns[k]\n",
        "",
        ("tests/test_cli.py::test_figure_on_malformed_results_exits_2_without_traceback",),
    ),
    Mutant(
        "version-compared-by-value", "src/ballistic/cli.py",
        "if type(version) is not int or version != CONFIG_VERSION:",
        "if version != CONFIG_VERSION:",
        ("tests/test_cli.py::test_validate_config_rejections",
         "tests/test_cli.py::test_bad_config_exit_2_before_output",
         "tests/test_cli.py::test_figure_on_malformed_results_exits_2_without_traceback"),
    ),
    Mutant(
        "check-type-bool-as-number", "src/ballistic/cli.py",
        " or isinstance(value, bool) != isinstance(default, bool)",
        "",
        ("tests/test_cli.py::test_bad_mux_yield_params_exit_2_before_output",),
    ),
    Mutant(
        "check-type-empty-list", "src/ballistic/cli.py",
        "if not (isinstance(value, list) and value):",
        "if not isinstance(value, list):",
        ("tests/test_cli.py::test_bad_config_exit_2_before_output",),
    ),
    Mutant(
        "empty-out-accepted", "src/ballistic/cli.py",
        '    if not cfg["out"]:\n',
        '    if cfg["out"] is None:\n',
        ("tests/test_cli.py::test_bad_output_path_exits_2_with_one_line",),
    ),
    Mutant(
        "file-out-accepted", "src/ballistic/cli.py",
        'if os.path.exists(cfg["out"]) and not os.path.isdir(cfg["out"]):',
        'if os.path.isdir(cfg["out"]) and not os.path.isdir(cfg["out"]):',
        ("tests/test_cli.py::test_bad_output_path_exits_2_with_one_line",),
    ),
    Mutant(
        "write-error-escapes", "src/ballistic/cli.py",
        "    except OSError as exc:\n        raise SpecError(f\"cannot write {what}",
        "    except KeyError as exc:\n        raise SpecError(f\"cannot write {what}",
        ("tests/test_cli.py::test_bad_output_path_exits_2_with_one_line",
         "tests/test_cli.py::test_failed_write_leaves_old_outputs"),
    ),
    Mutant(
        "outputs-written-in-place", "src/ballistic/cli.py",
        'tmp = {key: f"{path}.{os.getpid()}.tmp" for key, path in paths.items()}',
        "tmp = dict(paths)",
        ("tests/test_cli.py::test_failed_write_leaves_old_outputs",
         "tests/test_cli.py::test_failed_figure_write_leaves_old_figure"),
    ),
)


def check_anchors(mutants, root: Path = ROOT) -> None:
    """Raise BrokenCheck unless each mutant's old text occurs exactly once in
    its file, the file is one `run.py` copies, and the names are unique."""
    names = [m.name for m in mutants]
    if len(set(names)) != len(names):
        raise BrokenCheck(f"duplicate mutant names in {names}")
    for m in mutants:
        if Path(m.file).parts[0] not in COPIED[:2]:
            raise BrokenCheck(f"{m.name}: {m.file} is not under src/ or tests/")
        if m.old == m.new or not m.tests:
            raise BrokenCheck(f"{m.name}: changes nothing or names no test")
        path = root / m.file
        if not path.is_file():
            raise BrokenCheck(f"{m.name}: no file {m.file}")
        found = path.read_text().count(m.old)
        if found != 1:
            raise BrokenCheck(
                f"{m.name}: old text found {found} times in {m.file}: {m.old!r}"
            )


def _copy(root: Path, dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, dest / name, ignore=skip)
        else:
            shutil.copy2(root / name, dest / name)


def _pytest(dest: Path, tests) -> tuple[int, set, str]:
    """pytest's exit code, the failed node ids and the output, run in `dest`."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--tb=no", "-rfE", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BrokenCheck(f"pytest {' '.join(tests)} ran past {TIMEOUT} s") from None
    out = proc.stdout + proc.stderr
    failed = {
        line.split()[1] for line in out.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    }
    return proc.returncode, failed, out


def _tail(out: str, lines: int = 15) -> str:
    return "\n".join(out.rstrip().splitlines()[-lines:])


def baseline(mutants, root: Path = ROOT) -> None:
    """Raise BrokenCheck unless every named test passes unmutated: a test
    that already fails would count every mutant as killed."""
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        _copy(root, Path(tmp))
        code, _failed, out = _pytest(Path(tmp), tests)
    if code != 0:
        raise BrokenCheck(f"unmutated tests exit {code}:\n{_tail(out)}")


def run_one(m: Mutant, root: Path = ROOT) -> Result:
    """Apply `m` to a copy of `root` and run the tests it names (`run`
    checks its anchor first)."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy(root, dest)
        path = dest / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        code, failed, out = _pytest(dest, m.tests)
    seconds = time.perf_counter() - t0
    if code not in (0, 1):
        raise BrokenCheck(f"{m.name}: pytest exit {code}:\n{_tail(out)}")
    passed = [
        t for t in m.tests
        if not any(f == t or f.startswith(t + "[") for f in failed)
    ]
    if code == 1 and not passed:
        return Result(m.name, True, "", seconds)
    return Result(m.name, False, "still passing: " + ", ".join(passed), seconds)


def run(mutants=MUTANTS, root: Path = ROOT):
    """Each mutant's Result, in order; raises BrokenCheck if the check is broken."""
    check_anchors(mutants, root)
    baseline(mutants, root)
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(lambda m: run_one(m, root), mutants))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    t0 = time.perf_counter()
    try:
        results = run()
    except BrokenCheck as exc:
        print(f"mutants: error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        status = "killed" if r.killed else "SURVIVED"
        print(f"{status:9} {r.name:32} {r.seconds:5.1f} s  {r.detail}".rstrip())
    survived = sum(not r.killed for r in results)
    print(
        f"{len(results)} mutants: {len(results) - survived} killed,"
        f" {survived} survived in {time.perf_counter() - t0:.0f} s"
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
