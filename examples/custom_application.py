#!/usr/bin/env python
"""Using AutoCheck on your own program (including trace files on disk).

This example shows the workflow a user with their *own* application follows,
which is exactly the paper's Sec. VII "Use of AutoCheck" recipe:

1. instrument + run the program to get a dynamic instruction execution trace
   (here: write a mini-C heat-diffusion/statistics program and trace it to a
   file on disk);
2. tell AutoCheck where the main computation loop is (function + line range);
3. run the analysis and read off the variables to checkpoint.

Run with:  python examples/custom_application.py
"""

import os
import tempfile

from repro.codegen import compile_source
from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.tracer import trace_to_file
from repro.util.formatting import format_bytes

# --------------------------------------------------------------------------- #
# 1. A user application: explicit heat diffusion with running statistics.
#    The temperature field `temp` and the running extremes/energy are
#    loop-carried; the flux array is recomputed every step.
# --------------------------------------------------------------------------- #
SOURCE = """\
double temp[48];
double flux[48];
double total_energy;
double peak_temp;

int main() {
    int ncells = 48;
    int nsteps = 8;
    double alpha = 0.2;
    for (int i = 0; i < ncells; ++i) {
        temp[i] = 20.0 + 5.0 * sin(0.3 * i);
        flux[i] = 0.0;
    }
    total_energy = 0.0;
    peak_temp = 0.0;
    for (int step = 0; step < nsteps; ++step) {          // main loop begin
        for (int i = 0; i < ncells; ++i) {
            double left = temp[i];
            double right = temp[i];
            if (i > 0) {
                left = temp[i - 1];
            }
            if (i < ncells - 1) {
                right = temp[i + 1];
            }
            flux[i] = alpha * (left - 2.0 * temp[i] + right);
        }
        for (int i = 0; i < ncells; ++i) {
            temp[i] = temp[i] + flux[i];
        }
        total_energy = total_energy + temp[ncells / 2];
        if (temp[0] > peak_temp) {
            peak_temp = temp[0];
        }
        print("step", step, "center", temp[ncells / 2]);
    }                                                    // main loop end
    print("total_energy", total_energy, "peak", peak_temp);
    return 0;
}
"""

# The `for (int step = ...)` statement is on source line 16 and its closing
# brace on line 36 — exactly the two numbers a user hands to AutoCheck.
MAIN_LOOP = MainLoopSpec(function="main", start_line=16, end_line=36)

with tempfile.TemporaryDirectory(prefix="autocheck-custom-") as workdir:
    # ----------------------------------------------------------------- #
    # 2. Compile and trace to a file (LLVM-Tracer stand-in).
    # ----------------------------------------------------------------- #
    module = compile_source(SOURCE, module_name="heat")
    trace_path = os.path.join(workdir, "heat.trace")
    trace_bytes, run = trace_to_file(module, trace_path)
    print(f"Traced execution: {len(run.output)} output lines, "
          f"trace file {format_bytes(trace_bytes)} at {trace_path}")

    # ----------------------------------------------------------------- #
    # 3. Analyse the trace file (a text trace is encoded into an
    #    in-memory binary trace, then walked once).
    # ----------------------------------------------------------------- #
    config = AutoCheckConfig(main_loop=MAIN_LOOP)
    report = AutoCheck(config, trace_path=trace_path, module=module).run()

    print("\n" + report.summary())

    expected = {"temp", "total_energy", "peak_temp", "step"}
    found = set(report.names())
    assert expected <= found, f"missing {expected - found}"
    print("\nOK: the loop-carried state (temp, total_energy, peak_temp, step) "
          "was identified; the recomputed flux array was correctly excluded.")
