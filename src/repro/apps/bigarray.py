"""Synthetic large-array stress app for the address-resolution layer.

Not part of the paper's Table II study — this app exists to exercise the
:class:`repro.core.varmap.VariableMap` interval store at production scale:

* ``big``/``out`` are stack arrays whose element count is a parameter
  (``size=1_000_000`` in the large configuration), but the program only ever
  touches a fixed strided subset of ``block`` elements, so the trace stays a
  few thousand records while the address map must cover millions of element
  addresses — the per-element index of the old map would cost O(size)
  memory here, the interval store costs one segment per allocation;
* every main-loop iteration calls ``sweep``, whose ``scratch`` array is
  re-allocated at the same stack address each activation — the shadowing /
  scope-retirement churn the paper's Challenge 2 is about.

``benchmarks/bench_varmap_resolve.py`` builds its resolve-throughput and
index-memory measurements on this app.
"""

from __future__ import annotations

from repro.apps.base import AppDefinition


def build_source(size: int = 4096, iterations: int = 8,
                 block: int = 64) -> str:
    stride = max(1, size // block)
    return f"""\
void sweep(double *src, double *dst, int offset) {{
    double scratch[{block}];
    for (int k = 0; k < {block}; ++k) {{
        scratch[k] = src[k * {stride} + offset];
    }}
    for (int k = 0; k < {block}; ++k) {{
        dst[k * {stride} + offset] = scratch[k] * 2.0;
    }}
}}

int main() {{
    double big[{size}];
    double out[{size}];
    double checksum = 0.0;
    double scale = 1.0;
    for (int i = 0; i < {block}; ++i) {{
        big[i * {stride}] = i * 0.5;
        big[i] = big[i] + 0.25;
        out[i * {stride}] = 0.0;
    }}
    for (int it = 0; it < {iterations}; ++it) {{   // @mclr-begin
        sweep(big, out, it);
        checksum = checksum + out[it] * scale;
        scale = scale + 1.0;
    }}                                             // @mclr-end
    print("checksum", checksum);
    return 0;
}}
"""


BIGARRAY_APP = AppDefinition(
    name="bigarray",
    title="Large-array address-resolution stress app",
    description="Million-element stack arrays accessed through a strided "
                "subset plus a per-iteration callee scratch array: stresses "
                "interval-store memory (O(intervals), not O(elements)), "
                "bisect resolve and scope retirement.",
    category="micro",
    parallel_model="serial",
    source_builder=build_source,
    default_params={"size": 4096, "iterations": 8, "block": 64},
    large_params={"size": 1_000_000, "iterations": 8, "block": 64},
    expected_critical={
        "checksum": "WAR",
        "scale": "WAR",
        "out": "RAPO",
        "it": "Index",
    },
    # `out` is rewritten by every sweep, so only the cross-iteration
    # accumulators are output-sensitive under single-variable ablation.
    necessity_check=["checksum", "scale"],
    notes="Synthetic (no paper counterpart); registered outside the "
          "14-benchmark study like the worked example.",
)
