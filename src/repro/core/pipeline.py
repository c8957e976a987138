"""The AutoCheck pipeline: pre-processing → dependency analysis → identification.

This is the top-level orchestration of the paper's Fig. 2 workflow.  Every
report comes from one route: the trace is read as columnar blocks
(:meth:`repro.trace.columnar.TraceColumnarReader.iter_blocks`) and one
:class:`repro.core.engine.AnalysisEngine` walk drives every stage as an
engine pass — MLI-variable collection, the dependency analysis, R/W
extraction and the dynamic-induction probe all observe each record exactly
once, sharing one live variable map so every access resolves against the
allocation state at its own execution time.  The identify stage then
contracts the DDG and classifies the critical variables.

A version-2 binary trace file streams straight from disk.  Every other
input — an in-memory :class:`repro.trace.records.Trace`, a text trace
file, a version-1 binary file — is first encoded into an in-memory binary
trace (:func:`repro.trace.binio.encode_trace`) and read back from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.induction import find_induction_variable, find_main_loop
from repro.analysis.loops import find_loops
from repro.core.classify import classify_variables
from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.contraction import contract_ddg
from repro.core.dependency import DependencyPass
from repro.core.errors import AnalysisError
from repro.core.engine import (
    KIND_LOAD,
    KIND_STORE,
    REGION_INSIDE,
    AnalysisEngine,
    AnalysisPass,
    EngineWalk,
    SpanSelection,
)
from repro.core.preprocessing import MLICollectionPass
from repro.core.report import (
    AutoCheckReport,
    CacheInfo,
    PrefilterInfo,
    TraceStats,
)
from repro.core.rwdeps import RWExtractionPass
from repro.core.varmap import VariableInfo, VariableMap
from repro.ir.module import Module
from repro.ir.opcodes import Opcode
from repro.static.prefilter import StaticPrefilter, build_prefilter
from repro.static.summary import StaticModuleAnalysis, analyze_module
from repro.trace.binio import encode_trace, is_binary_trace_file, read_layout
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import Trace
from repro.trace.textio import iter_trace_records, read_preamble
from repro.util.timing import TimingBreakdown


_PROBE_LOAD = int(Opcode.LOAD)
_PROBE_OPCODES = (_PROBE_LOAD, int(Opcode.STORE))


#: timing stages of the walk's passes, in registration order
_PASS_STAGES = ("walk.mli", "walk.dependency", "walk.rw", "walk.probe")


def _with_block_progress(blocks, callback):
    """Tee a columnar block iterable into per-block progress firings."""
    total = 0
    for block in blocks:
        yield block
        total += block.count
        callback(total)


class InductionProbePass(AnalysisPass):
    """Engine pass behind the dynamic induction-variable fallback.

    Collects the variables read and written by records at the loop's
    controlling source line; the induction variable is the one that is both
    (it is read to test the condition and written to advance).  Resolution
    goes through the engine's shared live map at access time.
    """

    column_kinds = frozenset((KIND_LOAD, KIND_STORE))

    def __init__(self, varmap: VariableMap, spec: MainLoopSpec) -> None:
        self.varmap = varmap
        self.spec = spec
        self.read: Dict[str, VariableInfo] = {}
        self.written: Dict[str, VariableInfo] = {}

    def select_span(self, block, lo: int, hi: int,
                    region: int) -> Optional[SpanSelection]:
        """The spec function's Load/Store rows on the loop's start line,
        inside the loop."""
        if region != REGION_INSIDE:
            return None
        spec = self.spec
        return SpanSelection(block.match_rows(
            lo, hi, _PROBE_OPCODES,
            function_id=block.id_of.get(spec.function, -1),
            line=spec.start_line))

    def consume_selected(self, block, region: int, selected) -> None:
        """Probe the segment's loads and stores at the controlling line.

        Only globals and the main-loop function's own allocations qualify
        (the MLI candidate population), so a callee local never poses as
        the induction variable when the loop lives in a nested function.
        """
        spec_function = self.spec.function
        opcode = block.opcode
        op_start = block.op_start
        has_result = block.has_result
        op_address = block.op_address
        resolve = self.varmap.resolve
        for row in selected:
            if opcode[row] == _PROBE_LOAD:
                operand_index = 0
                sink = self.read
            else:
                operand_index = 1
                sink = self.written
            lo_slot = op_start[row]
            if op_start[row + 1] - lo_slot - has_result[row] <= operand_index:
                continue
            info = resolve(op_address[lo_slot + operand_index])
            if info is None:
                continue
            if not (info.is_global or info.function == spec_function):
                continue
            sink[info.name] = info

    def pick(self) -> Tuple[Optional[str], Optional[VariableInfo]]:
        """The detected induction variable: both read and written at the
        loop's controlling line (``(None, None)`` when nothing matches)."""
        for name, info in self.written.items():
            if name in self.read:
                return name, info
        return None, None


@dataclass
class PassWalk:
    """The finalized pass states of one engine walk.

    :meth:`AutoCheck.walk` returns it and the identify stage consumes it;
    the stage-level tests inspect the same object.
    """

    walk: EngineWalk
    varmap: VariableMap
    global_count: int
    mli: MLICollectionPass
    dependency: DependencyPass
    rw: RWExtractionPass
    #: the dynamic-induction probe; ``None`` when the induction variable
    #: was known before the walk
    probe: Optional[InductionProbePass]
    #: the induction variable known before the walk (config or static
    #: loop analysis), if any
    induction_name: Optional[str]
    #: records the static prefilter kept from pass dispatch
    skipped_records: int = 0


class AutoCheck:
    """Run the full AutoCheck analysis for one program trace."""

    def __init__(self, config: AutoCheckConfig,
                 trace: Optional[Trace] = None,
                 trace_path: Optional[str] = None,
                 module: Optional[Module] = None) -> None:
        if trace is None and trace_path is None:
            raise ValueError("AutoCheck needs either a Trace or a trace file path")
        self.config = config
        self._trace = trace
        self._trace_path = trace_path
        self._module = module
        self._static: Optional[StaticModuleAnalysis] = None
        #: the input as an in-memory binary trace and its content digest,
        #: for inputs that are not a version-2 binary file (one encode
        #: serves both the walk and :meth:`cache_key`; the bytes are
        #: dropped once walked)
        self._encoded_bytes: Optional[bytes] = None
        self._encoded_digest: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _encode(self) -> bytes:
        """The input encoded as an in-memory binary trace (memoized)."""
        if self._encoded_bytes is None:
            if self._trace is not None:
                trace = self._trace
                encoded = encode_trace(trace.module_name, trace.globals,
                                       trace.records)
            else:
                assert self._trace_path is not None
                module_name, globals_ = read_preamble(self._trace_path)
                encoded = encode_trace(module_name, globals_,
                                       iter_trace_records(self._trace_path))
            self._encoded_bytes, self._encoded_digest = encoded
        return self._encoded_bytes

    def _open_reader(self) -> TraceColumnarReader:
        """The input as columnar blocks: a version-2 binary file streams
        from disk, anything else is encoded into memory first."""
        path = self._trace_path
        if self._trace is None and is_binary_trace_file(path):
            layout = read_layout(path)
            if layout.content_digest is not None:
                return TraceColumnarReader(path, layout=layout)
        return TraceColumnarReader(buffer=self._encode())

    def _static_induction_name(self) -> Optional[str]:
        """The induction variable from the static loop analysis over the IR
        (the paper's llvm-pass-loop equivalent), if the module is at hand."""
        spec = self.config.main_loop
        if self._module is None or spec.function not in self._module.functions:
            return None
        function = self._module.function(spec.function)
        loops = find_loops(function)
        loop = find_main_loop(function, spec.start_line, spec.end_line,
                              loop_info=loops)
        if loop is None:
            return None
        induction = find_induction_variable(function, loop)
        return induction.name if induction is not None else None

    def _static_analysis(self) -> StaticModuleAnalysis:
        """The memoized spec-bearing static analysis (prefilter path).

        Raises:
            AnalysisError: when no module was supplied, or the main-loop
                function does not exist in it — the static prefilter has
                nothing sound to derive its skip tables from.
        """
        if self._static is None:
            spec = self.config.main_loop
            if self._module is None:
                raise AnalysisError(
                    "static_prefilter needs the compiled IR module: pass "
                    "module=... to AutoCheck (or --source on the CLI)")
            if spec.function not in self._module.functions:
                raise AnalysisError(
                    f"static_prefilter: main-loop function "
                    f"{spec.function!r} does not exist in the module")
            self._static = analyze_module(
                self._module, spec=spec,
                include_global_accesses_in_calls=(
                    self.config.include_global_accesses_in_calls))
        return self._static

    @staticmethod
    def _latest_main_loop_variable(varmap: VariableMap, spec: MainLoopSpec,
                                   name: str) -> Optional[VariableInfo]:
        """Latest registration of ``name`` among globals and the main-loop
        function's own allocations (Challenge 2: a same-named callee local
        must not be mistaken for the loop's variable)."""
        latest: Optional[VariableInfo] = None
        for info in varmap.by_name(name):
            if info.is_global or info.function == spec.function:
                latest = info
        return latest

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self) -> AutoCheckReport:
        """Run the analysis and return the full report.

        With :attr:`~repro.core.config.AutoCheckConfig.use_cache` set, the
        content-addressed artifact store is consulted first: a hit — same
        trace content digest, same semantic config fingerprint, same report
        schema — skips the record walk entirely and returns the stored
        report (its :attr:`~repro.core.report.AutoCheckReport.cache_info`
        says so); a miss runs the walk and publishes the result for the
        next run.
        """
        if not self.config.use_cache:
            return self._run_engine()
        return self._run_with_cache()

    def cache_key(self):
        """The artifact-store address of this run, without running it.

        Computing the address costs zero record decodes for file inputs
        (binary footers carry the digest precomputed; text files hash raw
        bytes); an in-memory trace is encoded into the in-memory binary
        trace the walk reads, which yields the same digest its on-disk
        binary form would carry.

        Shared by the cache lookup below and by the serve daemon, whose
        request-coalescing table keys on exactly this address — "N
        identical in-flight requests" and "a warm store hit" agree on what
        *identical* means by construction.

        Returns:
            :class:`repro.store.cache.ArtifactAddress`.
        """
        # Imported lazily: repro.store imports core modules, so a top-level
        # import here would be circular when repro.store is imported first.
        from repro.store.cache import (
            ArtifactAddress,
            artifact_key,
            config_fingerprint,
        )
        from repro.store.digest import compute_trace_digest

        if self._trace is not None:
            if self._encoded_digest is None:
                self._encode()
            trace_digest = self._encoded_digest
        else:
            assert self._trace_path is not None
            trace_digest = compute_trace_digest(self._trace_path)
        # The static induction name is an analysis input that lives outside
        # the config (it comes from the module's IR): a run that resolves it
        # and one that cannot (no module) must address different entries.
        static_induction = None
        if self.config.induction_variable is None:
            static_induction = self._static_induction_name()
        # A prefiltered run keys on the static analysis too: should the
        # skip tables ever be wrong, the bad entry stays quarantined from
        # unfiltered runs instead of poisoning them.
        static_fingerprint = None
        if self.config.static_prefilter:
            static_fingerprint = self._static_analysis().fingerprint()
        fingerprint = config_fingerprint(self.config,
                                         static_induction=static_induction,
                                         static_fingerprint=static_fingerprint)
        return ArtifactAddress(key=artifact_key(trace_digest, fingerprint),
                               trace_digest=trace_digest,
                               fingerprint=fingerprint)

    def _run_with_cache(self) -> AutoCheckReport:
        """Cache lookup → engine run on miss → publish."""
        from repro.store.cache import ArtifactStore

        address = self.cache_key()
        key = address.key
        store = ArtifactStore(self.config.cache_dir)
        cached = store.load(key)
        if cached is not None:
            cached.cache_info = CacheInfo(hit=True, key=key,
                                          trace_digest=address.trace_digest,
                                          path=store.entry_path(key))
            return cached
        report = self._run_engine()
        path = store.store(key, report, trace_digest=address.trace_digest,
                           fingerprint=address.fingerprint)
        report.cache_info = CacheInfo(hit=False, key=key,
                                      trace_digest=address.trace_digest,
                                      path=path)
        return report

    # ------------------------------------------------------------------ #
    # The walk and the identify stage
    # ------------------------------------------------------------------ #
    def walk(self, timings: Optional[TimingBreakdown] = None) -> PassWalk:
        """Walk the trace once and return the finalized pass states.

        Args:
            timings: receives the ``preprocessing`` (opening the input) and
                ``fused_analysis`` (the walk) stages when given, and inside
                the walk ``walk.decode``, ``walk.scope`` and one
                ``walk.<pass>`` stage per registered pass (``walk.probe``
                only when the probe ran).

        Raises:
            AnalysisError: when no record falls inside the main loop range,
                a record carries an unknown opcode, or ``static_prefilter``
                is set without a usable module.
        """
        timings = timings if timings is not None else TimingBreakdown()
        config = self.config
        spec = config.main_loop

        # Static analysis needs only the IR; resolving it before the walk
        # lets the engine skip the dynamic-induction probe entirely when the
        # answer is already known.
        induction_name = config.induction_variable
        if induction_name is None:
            induction_name = self._static_induction_name()

        prefilter: Optional[StaticPrefilter] = None
        if config.static_prefilter:
            prefilter = build_prefilter(self._static_analysis())

        with timings.stage("preprocessing"):
            reader = self._open_reader()
        try:
            varmap = VariableMap()
            mli_pass = MLICollectionPass(
                varmap, spec,
                include_global_accesses_in_calls=(
                    config.include_global_accesses_in_calls))
            dep_pass = DependencyPass(varmap,
                                      before_vars=mli_pass.before_vars,
                                      inside_vars=mli_pass.inside_vars)
            rw_pass = RWExtractionPass(varmap, candidates=mli_pass.before_vars)
            # Order matters: the MLI pass must update the variable sets
            # before the DDG / R/W passes consult them for the same segment.
            passes: List[AnalysisPass] = [mli_pass, dep_pass, rw_pass]
            probe: Optional[InductionProbePass] = None
            if induction_name is None:
                probe = InductionProbePass(varmap, spec)
                passes.append(probe)

            engine = AnalysisEngine(spec, passes, variable_map=varmap,
                                    prefilter=prefilter)
            globals_ = reader.layout.globals
            engine.add_globals(globals_)
            blocks = reader.iter_blocks()
            if config.progress_callback is not None:
                blocks = _with_block_progress(blocks, config.progress_callback)
            with timings.stage("fused_analysis"):
                walk = engine.run_columnar(blocks)
        finally:
            reader.close()
            self._encoded_bytes = None
        timings.add_count("fused_analysis", walk.record_count)
        timings.add("walk.decode", engine.decode_seconds)
        timings.add("walk.scope", engine.scope_seconds)
        for stage, seconds in zip(_PASS_STAGES, engine.pass_seconds):
            timings.add(stage, seconds)
        return PassWalk(walk=walk, varmap=varmap, global_count=len(globals_),
                        mli=mli_pass, dependency=dep_pass, rw=rw_pass,
                        probe=probe, induction_name=induction_name,
                        skipped_records=engine.skipped_records)

    def _run_engine(self) -> AutoCheckReport:
        """Walk, identify and package the report (no cache involved)."""
        timings = TimingBreakdown()
        spec = self.config.main_loop
        passes = self.walk(timings)
        walk = passes.walk
        with timings.stage("identify_variables"):
            preprocessing = passes.mli.result()
            dependency = passes.dependency.result()
            contracted = contract_ddg(dependency.complete_ddg,
                                      preprocessing.mli_keys())
            mli_names = {var.key: var.name
                         for var in preprocessing.mli_variables}
            rw = passes.rw.build(set(preprocessing.mli_keys()), mli_names)
            induction_name = passes.induction_name
            induction_info: Optional[VariableInfo] = None
            if induction_name is not None:
                induction_info = self._latest_main_loop_variable(
                    passes.varmap, spec, induction_name)
            elif passes.probe is not None:
                induction_name, induction_info = passes.probe.pick()
            critical = classify_variables(preprocessing, rw,
                                          induction=induction_name,
                                          induction_info=induction_info)

        report = AutoCheckReport(
            main_loop=spec,
            critical_variables=critical,
            mli_variable_names=preprocessing.mli_names(),
            induction_variable=induction_name,
            complete_ddg=dependency.complete_ddg,
            contracted_ddg=contracted,
            rw_sequence=rw,
            timings=timings,
            trace_stats=TraceStats(
                record_count=walk.record_count,
                before_count=walk.before_count,
                inside_count=walk.inside_count,
                after_count=walk.after_count,
                global_count=passes.global_count,
            ),
        )
        if self.config.static_prefilter:
            analysis = self._static_analysis()
            report.prefilter_info = PrefilterInfo(
                skipped_records=passes.skipped_records,
                candidate_count=len(analysis.candidate_ids),
                static_fingerprint=analysis.fingerprint())
        return report


def analyze_trace(trace: Union[Trace, str], main_loop: MainLoopSpec,
                  module: Optional[Module] = None,
                  **config_kwargs) -> AutoCheckReport:
    """One-call convenience API.

    ``trace`` may be an in-memory :class:`Trace` or a path to a trace file;
    extra keyword arguments are forwarded to :class:`AutoCheckConfig`.
    """
    config = AutoCheckConfig(main_loop=main_loop, **config_kwargs)
    if isinstance(trace, str):
        return AutoCheck(config, trace_path=trace, module=module).run()
    return AutoCheck(config, trace=trace, module=module).run()
