"""Statistical cycle-accurate performance model of the convolution tile.

Execution model (paper §3.2-3.3, §4.1):

- An FP16 x FP16 inner product is nine nibble iterations. On a baseline
  (38-bit) IPU each iteration is one cycle. On an MC-IPU(w) each iteration
  takes ``max(1, ceil(max_shift / sp))`` cycles, where ``max_shift`` is the
  worst unmasked (``< sw``) alignment among the IPU's n products.
- IPUs in a cluster run in lockstep: a step costs the *maximum* cycles over
  the cluster members (they share the broadcast input).
- Clusters run independently (local input/output buffers); with adequate
  buffering a layer's time is governed by the mean per-step cost, and the
  tile processes ``n_tiles * ipus_per_tile`` inner products per step.

The per-layer expected step cost is estimated from sampled product
exponents; :mod:`repro.tile.cluster` provides the finite-buffer queue
simulation used to validate the infinite-buffer assumption.

A layer's sampled exponents depend only on its seed, the sampling geometry
``(c_unroll, effective_cluster_size)``, the sample count and the direction,
never on the adder width: the width only changes how a fixed set of
alignment shifts is served (Proposition 1, ``sp = w - 9``).
:func:`simulate_networks` therefore samples each layer once per geometry
and costs every width off that one array, and tiles whose adder tree meets
the software precision (never multi-cycle) are not sampled at all.
:func:`simulate_network` is the single-tile case of it.
The cost is width-independent up to its last step too: a lockstep step
costs ``serve_cycles(W, sp) + 1``, with ``W`` the worst unmasked shift over
the whole cluster, so :func:`step_cycle_samples` reduces each step to ``W``
once and prices every width from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.ipu.ehu import mc_cycle_counts, worst_shift
from repro.ipu.theory import safe_precision
from repro.nn.zoo import ConvShape
from repro.tile.config import TileConfig
from repro.tile.workload import layer_ip_ops, sample_product_exponents
from repro.utils.rng import as_generator

__all__ = [
    "FP16_ITERATIONS",
    "LayerPerf",
    "NetworkPerf",
    "step_cycle_samples",
    "expected_step_cycles",
    "simulate_layer",
    "simulate_network",
    "simulate_networks",
]

FP16_ITERATIONS = 9  # nibble iterations per FP16 x FP16 inner product


@dataclass(frozen=True)
class LayerPerf:
    layer: ConvShape
    ip_ops: int
    steps: int
    cycles_per_step: float
    cycles: float

    @property
    def cycles_per_iteration(self) -> float:
        return self.cycles_per_step / FP16_ITERATIONS


@dataclass(frozen=True)
class NetworkPerf:
    name: str
    layers: list[LayerPerf]

    @property
    def total_cycles(self) -> float:
        return sum(l.cycles for l in self.layers)

    def normalized_to(self, baseline: "NetworkPerf") -> float:
        return self.total_cycles / baseline.total_cycles


def step_cycle_samples(
    product_exps: np.ndarray,
    adder_width: int | Sequence[int],
    software_precision: int,
) -> np.ndarray:
    """Per-step cycles for one nibble iteration, shape ``(samples,)``.

    ``product_exps`` has shape ``(samples, group, n)``: per-IPU alignment
    cycles are computed from the exponent spread, then the lockstep maximum
    is taken over the group axis. A sequence of adder widths returns one
    row per width, shape ``(len(widths), samples)``, all priced from one
    worst-shift reduction.
    """
    widths = [adder_width] if np.ndim(adder_width) == 0 else list(adder_width)
    # an MC adder narrower than one product has no serve schedule at all
    sps = [safe_precision(w, strict=w < software_precision) for w in widths]
    exps = np.asarray(product_exps, dtype=np.int64)
    shifts = exps.max(axis=-1, keepdims=True) - exps
    # the lockstep cost is the worst unmasked shift's over the whole group,
    # whatever the width: cost that one shift per step
    worst = worst_shift(shifts, shifts >= software_precision, axis=(-2, -1))
    shifts = worst[..., None, None]
    masked = np.zeros(shifts.shape, dtype=bool)
    rows = [mc_cycle_counts(shifts, masked, sp, w, software_precision).max(axis=-1)
            for w, sp in zip(widths, sps)]
    return rows[0] if np.ndim(adder_width) == 0 else np.stack(rows)


def expected_step_cycles(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 2048,
    rng=None,
    product_exps: np.ndarray | None = None,
) -> float:
    """Expected cycles per nibble iteration step for this layer/tile.

    ``product_exps`` supplies pre-sampled exponents (``(samples, group, n)``,
    e.g. gathered once from a session's operand plans) so several tile
    configurations can be costed off one sampling pass.
    """
    if product_exps is None:
        rng = as_generator(rng)
        product_exps = sample_product_exponents(
            layer, tile.c_unroll, tile.effective_cluster_size, samples,
            direction=direction, rng=rng,
        )
    per_step = step_cycle_samples(product_exps, tile.adder_width, software_precision)
    return float(per_step.mean())


def _layer_perf(layer: ConvShape, tile: TileConfig, per_iter: float) -> LayerPerf:
    ip_ops = layer_ip_ops(layer, tile.c_unroll)
    parallel = tile.n_tiles * tile.ipus_per_tile
    steps = -(-ip_ops // parallel)
    cycles = steps * FP16_ITERATIONS * per_iter
    return LayerPerf(
        layer=layer, ip_ops=ip_ops, steps=steps,
        cycles_per_step=FP16_ITERATIONS * per_iter, cycles=cycles,
    )


def simulate_layer(
    layer: ConvShape,
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 2048,
    rng=None,
    product_exps: np.ndarray | None = None,
) -> LayerPerf:
    """Cycle estimate for one conv layer in FP16 mode on this tile config."""
    per_iter = expected_step_cycles(
        layer, tile, software_precision, direction, samples, rng, product_exps,
    )
    return _layer_perf(layer, tile, per_iter)


def simulate_network(
    layers: list[ConvShape],
    tile: TileConfig,
    software_precision: int,
    direction: str = "forward",
    samples: int = 1024,
    rng=None,
    name: str = "",
) -> NetworkPerf:
    """Simulate every conv layer of a network; per-layer seeds are derived
    deterministically so results are reproducible and layer-order invariant."""
    return replace(simulate_networks(layers, [tile], software_precision, direction,
                                     samples, rng)[0], name=name)


def simulate_networks(
    layers: list[ConvShape],
    tiles: list[TileConfig],
    software_precision: int,
    direction: str = "forward",
    samples: int = 1024,
    rng=None,
) -> list[NetworkPerf]:
    """:func:`simulate_network` for several tiles off one sampling pass.

    Per-layer seeds are drawn once from ``rng``, exactly as for a single
    tile, so ``simulate_networks(layers, tiles)[i]`` equals
    ``simulate_network(layers, tiles[i])``. Each layer is sampled once per
    sampling geometry ``(c_unroll, effective_cluster_size)`` and every tile
    of that geometry is costed off the same array; only one layer's array is
    held at a time. A tile with ``adder_width >= software_precision`` is
    never multi-cycle, so it costs one cycle per iteration unsampled.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    rng = as_generator(rng)
    seeds = rng.integers(0, 2**63 - 1, size=len(layers))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, tile in enumerate(tiles):
        geometry = (tile.c_unroll, tile.effective_cluster_size)  # validates the cluster
        if tile.adder_width < software_precision:
            groups.setdefault(geometry, []).append(i)
    perfs: list[list[LayerPerf]] = [[] for _ in tiles]
    for layer, seed in zip(layers, seeds):
        for i, tile in enumerate(tiles):
            if tile.adder_width >= software_precision:
                perfs[i].append(_layer_perf(layer, tile, 1.0))
        for (n_inputs, group), members in groups.items():
            exps = sample_product_exponents(
                layer, n_inputs, group, samples, direction=direction,
                rng=np.random.default_rng(seed),
            )
            rows = step_cycle_samples(exps, [tiles[i].adder_width for i in members],
                                      software_precision)
            for i, row in zip(members, rows):
                perfs[i].append(_layer_perf(layer, tiles[i], float(row.mean())))
    return [NetworkPerf(name="", layers=layer_perfs) for layer_perfs in perfs]


def int_mode_cycles(layers: list[ConvShape], tile: TileConfig, a_bits: int, b_bits: int) -> float:
    """INT-mode cycle count: nibble iterations only, no alignment stalls."""
    from repro.nibble.schedule import iteration_count

    iters = iteration_count(a_bits, b_bits)
    parallel = tile.n_tiles * tile.ipus_per_tile
    return sum(-(-layer_ip_ops(l, tile.c_unroll) // parallel) * iters for l in layers)
