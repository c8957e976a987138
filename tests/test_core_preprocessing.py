"""Unit tests for trace partitioning and MLI identification (paper Sec. IV-A).

The engine walk partitions the trace around the main loop's dynamic extent
on the fly; these tests read the regions off the walk ``AutoCheck.run``
performs.
"""

import pytest

from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core.errors import AnalysisError


def _regions(trace, walk):
    records = trace.records
    return (records[:walk.first_index],
            records[walk.first_index:walk.last_index + 1],
            records[walk.last_index + 1:])


class TestPartitioning:
    def test_partition_covers_all_records(self, example_trace, example_walk):
        walk = example_walk.walk
        assert (walk.before_count + walk.inside_count + walk.after_count
                == walk.record_count == len(example_trace.records))

    def test_inside_region_within_loop_lines(self, example_trace,
                                             example_spec, example_walk):
        _, inside, _ = _regions(example_trace, example_walk.walk)
        first, last = inside[0], inside[-1]
        assert first.function == "main"
        assert example_spec.contains_line(first.line)
        assert last.function == "main"
        assert example_spec.contains_line(last.line)

    def test_before_region_precedes_loop(self, example_trace, example_walk):
        before, _, _ = _regions(example_trace, example_walk.walk)
        first_loop_dyn_id = example_walk.walk.first_loop_dyn_id
        assert all(r.dyn_id < first_loop_dyn_id for r in before)

    def test_after_region_contains_final_print(self, example_trace,
                                               example_walk):
        _, _, after = _regions(example_trace, example_walk.walk)
        assert any(r.is_call and r.callee == "print" for r in after)

    def test_callee_records_are_inside_region(self, example_trace,
                                              example_walk):
        before, inside, _ = _regions(example_trace, example_walk.walk)
        assert any(r.function == "foo" for r in inside)
        assert not any(r.function == "foo" for r in before)

    def test_bad_range_raises(self, example_trace):
        spec = MainLoopSpec(function="main", start_line=500, end_line=600)
        with pytest.raises(AnalysisError):
            AutoCheck(AutoCheckConfig(main_loop=spec),
                      trace=example_trace).walk()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            MainLoopSpec(function="main", start_line=10, end_line=5)

    def test_mclr_string(self, example_spec):
        assert example_spec.mclr == f"{example_spec.start_line}-{example_spec.end_line}"


class TestMLIIdentification:
    def test_example_mli_set_matches_paper(self, example_preprocessing):
        # Paper Sec. IV-A: "'a', 'b', 'sum', 's', 'r' are the MLI variables".
        assert set(example_preprocessing.mli_names()) == {"a", "b", "sum", "s", "r"}

    def test_loop_local_not_mli(self, example_preprocessing):
        assert example_preprocessing.find("m") is None

    def test_induction_variable_not_mli(self, example_preprocessing):
        # `it` is defined by the for-init inside the loop region, so it is not
        # an MLI variable (it is checkpointed through the Index rule instead).
        assert example_preprocessing.find("it") is None

    def test_callee_locals_not_mli(self, example_preprocessing):
        for name in ("p", "q", "i"):
            assert example_preprocessing.find(name) is None

    def test_mli_metadata(self, example_preprocessing):
        a = example_preprocessing.find("a")
        assert a is not None
        assert a.is_array and a.size_bytes == 40
        r = example_preprocessing.find("r")
        assert not r.is_array and r.size_bytes == 4

    def test_before_and_inside_collections_nonempty(self, example_preprocessing):
        assert example_preprocessing.before_variables
        assert example_preprocessing.inside_variables

    def test_call_bypass_excludes_same_named_callee_locals(self):
        """Challenge 1/2: a callee local named like an MLI variable must not
        be matched; address-based identity keeps them apart."""
        from repro.api import autocheck_source
        from repro.apps.base import find_mclr

        source = """\
double total;

void helper() {
    double total = 5.0;      // same name as the global, different storage
    total = total * 2.0;
}

int main() {
    total = 1.0;
    double keep = 2.0;
    helper();
    for (int it = 0; it < 4; ++it) {     // @mclr-begin
        helper();
        total = total + keep;
    }                                     // @mclr-end
    print(total);
    return 0;
}
"""
        start, end = find_mclr(source)
        report = autocheck_source(source, MainLoopSpec("main", start, end))
        assert "total" in report.mli_variable_names
        # the helper-local `total` contributes nothing; keep is read-only
        assert report.find("total").dependency.value == "WAR"
        assert report.find("keep") is None

    def test_global_access_in_calls_option(self):
        """The FT special case (paper Sec. V-B): a global only touched inside
        functions called from the loop is found only when the option is on."""
        from repro.api import autocheck_source
        from repro.apps.base import find_mclr

        source = """\
double hidden[8];

void update() {
    for (int i = 0; i < 8; ++i) {
        hidden[i] = hidden[i] * 1.5;
    }
}

int main() {
    for (int i = 0; i < 8; ++i) {
        hidden[i] = 1.0;
    }
    double watch = 0.0;
    for (int kt = 0; kt < 4; ++kt) {      // @mclr-begin
        update();
        watch = watch + 1.0;
    }                                      // @mclr-end
    print(hidden[0], watch);
    return 0;
}
"""
        start, end = find_mclr(source)
        spec = MainLoopSpec("main", start, end)
        without = autocheck_source(source, spec)
        assert "hidden" not in without.mli_variable_names
        with_option = autocheck_source(source, spec,
                                       include_global_accesses_in_calls=True)
        assert "hidden" in with_option.mli_variable_names
        assert with_option.find("hidden").dependency.value == "WAR"
