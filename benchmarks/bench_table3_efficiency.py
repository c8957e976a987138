"""Benchmark: regenerate paper Table III (analysis-time breakdown).

Times, per benchmark, the trace generation, the single-pass walk (every
analysis pass up to identification) with its pre-processing (MLI pass) and
dependency-analysis (DDG pass) shares, and critical-variable
identification, and prints the assembled table with the walk's
records/second.  The paper's qualitative findings are asserted: walking
the trace dominates the analysis time and the identification stage is the
cheapest.
"""

from repro.experiments.table3 import format_table3, run_table3

#: A representative spread of small / medium / large traces; running all 14
#: here would only repeat the same measurement (the full table is available
#: via `autocheck table3`).
SELECTION = ["hpccg", "is", "mg", "cg", "amg"]


def test_table3_breakdown(benchmark, once, tmp_path):
    rows = once(benchmark, run_table3, apps=SELECTION, trace_dir=str(tmp_path))

    print()
    print("Table III (regenerated, seconds):")
    print(format_table3(rows))

    for row in rows:
        # The walk reads every instruction of the trace and is the most
        # expensive analysis stage (paper Sec. VI-C).
        assert row.identify_variables <= row.walk
        assert row.total > 0
        assert row.records_per_second > 0

    # Larger traces cost more total analysis time (AMG's trace is the largest
    # of the selection, HPCCG's the smallest) — the paper's linear-in-trace
    # observation.
    by_name = {row.name: row for row in rows}
    assert by_name["AMG (ECP)"].total > by_name["HPCCG"].total
