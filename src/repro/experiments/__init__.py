"""``repro.experiments`` — harnesses regenerating the paper's evaluation.

Each module regenerates one table or study of the paper's Sec. VI:

* :mod:`repro.experiments.table2` — Table II: identified critical variables,
  dependency types, trace sizes, trace generation times and MCLR for the 14
  benchmarks (plus a column checking the result against the paper's).
* :mod:`repro.experiments.table3` — Table III: analysis time per
  benchmark (trace generation, the single-pass walk, identification) and
  the walk's record throughput.
* :mod:`repro.experiments.table4` — Table IV: checkpoint storage cost of
  AutoCheck-selected variables vs. a BLCR-style whole-process image, on the
  larger inputs.
* :mod:`repro.experiments.validation` — Sec. VI-B: fail-stop injection +
  restart with the detected variables (sufficiency) and the per-variable
  ablation (false-positive/necessity) study.
* :mod:`repro.experiments.figure5` — the worked example of Fig. 4/5:
  complete DDG, contracted DDG and the R/W dependency sequence.
* :mod:`repro.experiments.runner` — run everything and write a combined
  report.
"""

from repro.experiments.common import AppAnalysis, analyze_app, variable_sizes
from repro.experiments.table2 import Table2Row, run_table2, format_table2
from repro.experiments.table3 import Table3Row, run_table3, format_table3
from repro.experiments.table4 import Table4Row, run_table4, format_table4
from repro.experiments.validation import ValidationRow, run_validation, format_validation
from repro.experiments.figure5 import run_figure5
from repro.experiments.runner import run_all

__all__ = [
    "AppAnalysis",
    "analyze_app",
    "variable_sizes",
    "Table2Row",
    "run_table2",
    "format_table2",
    "Table3Row",
    "run_table3",
    "format_table3",
    "Table4Row",
    "run_table4",
    "format_table4",
    "ValidationRow",
    "run_validation",
    "format_validation",
    "run_figure5",
    "run_all",
]
