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

Each input is resolved once, on first need, and the store key
(:meth:`AutoCheck.cache_key`) and the walk (:meth:`AutoCheck.walk`) share
that resolution, so the walk reads the bytes the key came from:

* an in-memory :class:`repro.trace.records.Trace` is keyed by the digest of
  the binary bytes it holds (:meth:`~repro.trace.records.Trace.encoded`)
  and walked from them over the layout it keeps;
* a version-2 binary file is keyed by its footer digest and streams
  straight from disk with the layout read then; a publishing walk folds
  the footer digest over the record bytes it reads;
* any other file (text, or a version-1 binary) is keyed by the SHA-256 of
  its raw bytes.  Its walk reads the file once, and a publishing walk
  refuses those bytes unless they hash to that digest; the ``Trace`` is
  then built from them (:func:`repro.trace.textio.trace_from_bytes`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.induction import main_loop_induction
from repro.core.classify import classify_variables
from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.contraction import contract_ddg
from repro.core.dependency import DependencyPass
from repro.core.engine import (
    KIND_GEP,
    KIND_LOAD,
    REGION_INSIDE,
    AccessTable,
    AnalysisEngine,
    AnalysisPass,
    EngineWalk,
)
from repro.core.preprocessing import MLICollectionPass
from repro.core.report import AutoCheckReport, CacheInfo, TraceStats
from repro.core.rwdeps import RWExtractionPass
from repro.core.varmap import OwnerColumn, VariableInfo, VariableMap
from repro.ir.module import Module
from repro.trace.binio import (
    BINARY_MAGIC,
    BinaryTraceLayout,
    TraceDigestMismatch,
    layout_from_handle,
)
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import Trace
from repro.trace.textio import trace_from_bytes
from repro.util.timing import TimingBreakdown


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
    (it is read to test the condition and written to advance).  Owners come
    from the span's access table, resolved at access time.  Only globals
    and the main-loop function's own allocations qualify (the MLI candidate
    population), so a callee local never poses as the induction variable
    when the loop lives in a nested function.
    """

    def __init__(self, varmap: VariableMap, spec: MainLoopSpec) -> None:
        self.varmap = varmap
        self.spec = spec
        self.read: Dict[str, VariableInfo] = {}
        self.written: Dict[str, VariableInfo] = {}
        self._candidate = OwnerColumn(varmap, spec.is_candidate, bool)

    def close_span(self, table: AccessTable, region: int) -> None:
        """Probe the spec function's loads and stores on the loop's start
        line, inside the loop."""
        if region != REGION_INSIDE or not len(table):
            return
        spec = self.spec
        block = table.block
        rows = table.rows
        owners = table.owner_ids()
        kind = table.kind
        pick = np.flatnonzero(
            (kind != KIND_GEP) & (owners >= 0)
            & (block.line[rows] == spec.start_line)
            & (block.function_id[rows]
               == block.id_of.get(spec.function, -1)))
        pick = pick[self._candidate.array()[owners[pick]]]
        registrations = self.varmap.registrations
        for owner, load in zip(owners[pick].tolist(),
                               (kind[pick] == KIND_LOAD).tolist()):
            info = registrations[owner]
            sink = self.read if load else self.written
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


@dataclass(frozen=True)
class _ResolvedInput:
    """An analysis input, resolved once for its store key and its walk."""

    #: the trace content digest the store key is made of
    digest: str
    #: a version-2 file's layout, which its walk streams with
    layout: Optional[BinaryTraceLayout] = None


def _resolve_file(path: str) -> _ResolvedInput:
    """A trace file's digest, read in one open without decoding a record:
    a version-2 file's footer digest (with its layout), else the SHA-256 of
    its raw bytes."""
    with open(path, "rb") as handle:
        if handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC:
            layout = layout_from_handle(handle, path)
            if layout.content_digest is not None:
                return _ResolvedInput(layout.content_digest, layout)
        handle.seek(0)
        return _ResolvedInput(
            hashlib.file_digest(handle, "sha256").hexdigest())


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

    # ------------------------------------------------------------------ #
    # The input and the static loop analysis, each resolved once
    # ------------------------------------------------------------------ #
    @cached_property
    def _input(self) -> _ResolvedInput:
        """The input, resolved on first need (see the module docstring)."""
        if self._trace is not None:
            return _ResolvedInput(self._trace.encoded()[1])
        assert self._trace_path is not None
        return _resolve_file(self._trace_path)

    def _open_reader(self) -> TraceColumnarReader:
        """The input as columnar blocks: a version-2 file streams from disk
        with the layout its key came from, and a :class:`Trace` (any other
        file is read into one) is walked from its bytes over its layout,
        with errors on them naming the file it was read from.  Neither
        parses a footer again."""
        resolved = self._input
        if resolved.layout is not None:
            return TraceColumnarReader(self._trace_path,
                                       layout=resolved.layout)
        trace = self._trace
        if trace is None:
            trace = self._read_keyed_file(resolved.digest)
        return TraceColumnarReader(buffer=trace.encoded()[0],
                                   layout=trace.layout,
                                   name=trace.source_path)

    def _read_keyed_file(self, digest: str) -> Trace:
        """Read a text or version-1 file once and build its :class:`Trace`
        from those bytes; a run that publishes first checks that they hash
        to ``digest``, the raw-byte digest its store key came from."""
        path = self._trace_path
        assert path is not None
        with open(path, "rb") as handle:
            data = handle.read()
        if self.config.use_cache:
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                raise TraceDigestMismatch(path, digest, actual,
                                          keyed_by="the raw-byte digest")
        return trace_from_bytes(data, path)

    @cached_property
    def _static_induction_name(self) -> Optional[str]:
        """The induction variable from the static loop analysis over the IR
        (the paper's llvm-pass-loop equivalent), if the module is at hand."""
        spec = self.config.main_loop
        if self._module is None or spec.function not in self._module.functions:
            return None
        induction = main_loop_induction(self._module.function(spec.function),
                                        spec.start_line, spec.end_line)
        return induction.name if induction is not None else None

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

        Computing the address costs zero record decodes: binary footers
        carry the digest precomputed, any other file's raw bytes are
        hashed, and an in-memory trace holds the digest of the bytes the
        walk reads — the digest its on-disk binary file carries.  The
        address is computed once; later calls return it.

        Shared by the cache lookup below and by the serve daemon, whose
        request-coalescing table keys on exactly this address — "N
        identical in-flight requests" and "a warm store hit" agree on what
        *identical* means by construction.

        Returns:
            :class:`repro.store.cache.ArtifactAddress`.
        """
        return self._address

    @cached_property
    def _address(self):
        # Imported lazily: repro.store imports core modules, so a top-level
        # import here would be circular when repro.store is imported first.
        from repro.store.cache import (
            ArtifactAddress,
            artifact_key,
            config_fingerprint,
        )

        trace_digest = self._input.digest
        # The static induction name is an analysis input that lives outside
        # the config (it comes from the module's IR): a run that resolves it
        # and one that cannot (no module) must address different entries.
        static_induction = None
        if self.config.induction_variable is None:
            static_induction = self._static_induction_name
        fingerprint = config_fingerprint(self.config,
                                         static_induction=static_induction)
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
                the walk ``walk.decode``, ``walk.scope``, ``walk.resolve``
                (the access tables) and one ``walk.<pass>`` stage per
                registered pass (``walk.probe`` only when the probe ran).

        Raises:
            AnalysisError: when no record falls inside the main loop range,
                or a record carries an unknown opcode.
        """
        timings = timings if timings is not None else TimingBreakdown()
        config = self.config
        spec = config.main_loop

        # Static analysis needs only the IR; resolving it before the walk
        # lets the engine skip the dynamic-induction probe entirely when the
        # answer is already known.
        induction_name = config.induction_variable
        if induction_name is None:
            induction_name = self._static_induction_name

        with timings.stage("preprocessing"):
            reader = self._open_reader()
        try:
            varmap = VariableMap()
            mli_pass = MLICollectionPass(
                varmap, spec,
                include_global_accesses_in_calls=(
                    config.include_global_accesses_in_calls))
            dep_pass = DependencyPass(varmap)
            rw_pass = RWExtractionPass(varmap, candidates=mli_pass.before_vars)
            # Order matters: the MLI pass collects a span's variables before
            # the R/W pass filters the same span's events on them.
            passes: List[AnalysisPass] = [mli_pass, dep_pass, rw_pass]
            probe: Optional[InductionProbePass] = None
            if induction_name is None:
                probe = InductionProbePass(varmap, spec)
                passes.append(probe)

            engine = AnalysisEngine(spec, passes, variable_map=varmap)
            globals_ = reader.layout.globals
            engine.add_globals(globals_)
            # A run that publishes its report checks the bytes it walks,
            # file or buffer, against the footer digest its store key came
            # from (a text or version-1 file's were checked as it was read),
            # unless check_content_digest already checked the Trace's.
            verify = config.use_cache and not (
                self._trace is not None and self._trace.digest_checked)
            blocks = reader.iter_blocks(verify_digest=verify)
            if config.progress_callback is not None:
                blocks = _with_block_progress(blocks, config.progress_callback)
            with timings.stage("fused_analysis"):
                walk = engine.run_columnar(blocks)
        finally:
            reader.close()
        dep_pass.mark_mli(mli_pass.result().mli_keys())
        timings.add_count("fused_analysis", walk.record_count)
        timings.add("walk.decode", engine.decode_seconds)
        timings.add("walk.scope", engine.scope_seconds)
        timings.add("walk.resolve", engine.resolve_seconds)
        for stage, seconds in zip(_PASS_STAGES, engine.pass_seconds):
            timings.add(stage, seconds)
        return PassWalk(walk=walk, varmap=varmap, global_count=len(globals_),
                        mli=mli_pass, dependency=dep_pass, rw=rw_pass,
                        probe=probe, induction_name=induction_name)

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
                # The latest registration of the name that can be the
                # loop's variable (a same-named callee local cannot).
                for info in passes.varmap.by_name(induction_name):
                    if spec.is_candidate(info):
                        induction_info = info
            elif passes.probe is not None:
                induction_name, induction_info = passes.probe.pick()
            critical = classify_variables(preprocessing, rw,
                                          induction=induction_name,
                                          induction_info=induction_info)

        return AutoCheckReport(
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
