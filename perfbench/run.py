"""Benchmark of the ellf pipeline: assemble, inject, lift and round trip.

    python3 perfbench/run.py --workload code_heavy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: ``ellf`` is imported from ``src/``
next to this directory and nowhere else. The inputs are made from ``--seed``;
the program sees only them. Each pass runs every stage over every program of
the workload and checks every output; passes repeat for ``--seconds``, and a
stage's time is the median over passes. The last line of standard output is
one JSON object: the end-to-end metrics with ``--trace 0``, or, with
``--trace 1``, the per-layer metrics of a run whose passes go through the
wrappers in ``tracing.py``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import generate
from tracing import Tracer, is_ellf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("code_heavy", "data_heavy", "corpus_roundtrip")
STAGES = ("asm", "inject", "lift", "roundtrip")
MAX_TRACEBACKS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s", "asm_s": "s", "inject_s": "s", "lift_s": "s",
    "roundtrip_s": "s", "peak_rss_mib": "MiB", "ellf_overhead": "ratio",
    "roundtrip_pass": "share",
}

# Per-layer times: metric -> (span name, stage whose passes it is summed over).
LAYER_TIMES = {
    "asm.parse_assembly_s": ("asm.parse_assembly", "asm"),
    "asm.assemble_image_s": ("asm.assemble_image", "asm"),
    "meta.metadata_from_json_s": ("meta.metadata_from_json", "inject"),
    "meta.encode_metadata_s": ("meta.encode_metadata", "inject"),
    "elfio.inject_section_s": ("elfio.inject_section", "inject"),
    "elfio.read_elf_s": ("elfio.read_elf", "lift"),
    "elfio.extract_section_s": ("elfio.extract_section", "lift"),
    "meta.decode_metadata_s": ("meta.decode_metadata", "lift"),
    "meta.validate_metadata_s": ("meta.validate_metadata", "lift"),
    "elfio.load_image_s": ("elfio.load_image", "lift"),
    "lifter.lift_s": ("lifter.lift", "lift"),
    "lifter.lift_unsymbolized_s": ("lifter.lift_unsymbolized", "lift"),
    "lifter.generate_labels_s": ("lifter.generate_labels", "lift"),
    "lifter.coarse_symbolize_s": ("lifter.coarse_symbolize", "lift"),
    "lifter.text_symbolize_s": ("lifter.text_symbolize", "lift"),
    "lifter.stack_symbolize_s": ("lifter.stack_symbolize", "lift"),
    "lifter.data_symbolize_s": ("lifter.data_symbolize", "lift"),
    "lifter.build_cfg_s": ("lifter.build_cfg", "lift"),
    "lifter.emit_assembly_s": ("lifter.emit_assembly", "lift"),
}
# Calls counted per pass: metric -> (counted or span name, stage).
LAYER_CALLS = {
    "lifter.label_lookups": ("lifter.LabelMap.lookup", "lift"),
    "elfio.load_image_calls": ("elfio.load_image", "lift"),
}
# Work done by the workload's programs, counted from the stages' outputs.
WORK_COUNTS = (
    "lifter.instructions", "lifter.cfg_blocks", "lifter.labels_minted",
    "lifter.labels_used", "lifter.variables", "lifter.diagnostics",
    "lifter.text_bytes", "asm.source_lines", "elfio.alloc_bytes",
    "meta.ellf_bytes", "meta.records.instructions", "meta.records.pointers",
    "meta.records.text", "meta.records.stack", "meta.records.data",
)
PER_LAYER = (
    *LAYER_TIMES, "lifter.lift_self_s", *LAYER_CALLS,
    "isa.decode_one_per_instr", "isa.encode_one_per_instr",
    "cli.asm_s", "cli.lift_s", "trace.overhead_ratio", *WORK_COUNTS,
)


def purge_ellf() -> None:
    """Forget every imported ellf module, so the next import runs them again."""
    for name in [n for n in sys.modules if is_ellf(n)]:
        del sys.modules[name]
    importlib.invalidate_caches()


@contextlib.contextmanager
def modules_kept():
    """Put back the ellf modules in use before the block, dropping any imported in it.

    The stages keep running on warmed-up code, and the tracer wraps the same
    module objects that the stages call.
    """
    saved = {name: mod for name, mod in sys.modules.items() if is_ellf(name)}
    try:
        yield
    finally:
        purge_ellf()
        sys.modules.update(saved)


def load_ellf() -> argparse.Namespace:
    """Import ellf from the checkout's src/ and return its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"ellf.{name}")
            for name in ("asm", "cli", "corpus", "elfio", "errors", "lifter", "meta")}
    origin = Path(mods["asm"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"ellf was imported from {origin}, not from {SRC}")
    return argparse.Namespace(**mods)


def make_sources(m, workload: str, seed: int) -> list[tuple[str, str]]:
    """The workload's (name, source) programs for ``seed``."""
    if workload == "code_heavy":
        return [("code_heavy", generate.code_heavy(seed))]
    if workload == "data_heavy":
        return [("data_heavy", generate.data_heavy(seed))]
    # corpus_roundtrip: the bundled programs are fixed; the seed sets their order.
    programs = list(m.corpus.corpus_programs().items())
    random.Random(f"corpus_roundtrip:{seed}").shuffle(programs)
    return programs


@dataclass
class Program:
    """One input program and the reference outputs every pass is checked against."""
    name: str
    source: str
    elf: bytes = b""
    elf_digest: str = ""
    plain_elf: bytes = b""
    meta_json: str = ""
    text: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    lift_attempted: int = 0
    lift_failed: int = 0
    tracebacks: int = 0
    problems: list = field(default_factory=list)

    def record(self, stage: str, ok: bool, what: str) -> None:
        self.attempted += 1
        if stage in ("lift", "roundtrip", "hazard"):
            self.lift_attempted += 1
        if not ok:
            self.failed += 1
            if stage in ("lift", "roundtrip", "hazard"):
                self.lift_failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{stage} {what}")


# --- stages: each calls ellf through module attributes, so tracing sees it ---

def run_asm(m, prog):
    elf, _ = m.asm.assemble(m.asm.parse_assembly(prog.source))
    return elf


def run_inject(m, prog):
    """`ellf inject` without the file I/O: JSON metadata into the plain ELF."""
    meta = m.meta.metadata_from_json(json.loads(prog.meta_json))
    img = m.elfio.read_elf(prog.plain_elf)
    problems = m.meta.validate_metadata(meta, img)
    if problems:
        raise ValueError(f"metadata fails validation: {problems}")
    return m.elfio.inject_section(img, ".ellf", m.meta.encode_metadata(meta))


def run_lift(m, prog):
    """`ellf lift --strict` without the file I/O."""
    img = m.elfio.read_elf(prog.elf)
    meta = m.meta.decode_metadata(m.elfio.extract_section(img, ".ellf"))
    lifted = m.lifter.lift(img, meta, mode="strict")
    return lifted, m.lifter.emit_assembly(lifted)


def run_roundtrip(m, prog):
    return m.asm.roundtrip_check(prog.source)


RUNNERS = {"asm": run_asm, "inject": run_inject, "lift": run_lift,
           "roundtrip": run_roundtrip}
CHECKS = {
    "asm": lambda prog, elf: hashlib.sha256(elf).hexdigest() == prog.elf_digest,
    "inject": lambda prog, elf: elf == prog.elf,
    "lift": lambda prog, out: out[1] == prog.text and not out[0].diagnostics,
    "roundtrip": lambda prog, report: report.ok,
}


def attempt(tally: Tally, stage: str, prog: Program, fn, *args):
    """Run ``fn``; return (seconds, result or None). Exceptions count as failures."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # every failure is counted and the run goes on
        elapsed = time.perf_counter() - start
        tally.record(stage, False, f"{prog.name}: raised")
        if tally.tracebacks < MAX_TRACEBACKS:
            tally.tracebacks += 1
            traceback.print_exc(file=sys.stderr)
        return elapsed, None
    return time.perf_counter() - start, result


def prepare(m, prog: Program, tally: Tally) -> None:
    """Build the reference outputs: the ELF, the inject inputs and the lifted text.

    The reference text is the one roundtrip_check itself emits on its first
    lift, captured by wrapping emit_assembly for this one call.
    """
    prog.elf = run_asm(m, prog)
    prog.elf_digest = hashlib.sha256(prog.elf).hexdigest()
    prog.plain_elf, meta = m.asm.assemble_image(m.asm.parse_assembly(prog.source))
    prog.meta_json = json.dumps(m.meta.metadata_to_json(meta))
    emitted = []
    original = m.lifter.emit_assembly

    def capture(lifted):
        emitted.append(original(lifted))
        return emitted[-1]

    m.lifter.emit_assembly = capture
    try:
        report = m.asm.roundtrip_check(prog.source)
    finally:
        m.lifter.emit_assembly = original
    tally.record("roundtrip", report.ok and bool(emitted),
                 f"{prog.name}: reference round trip failed: {report.lines()}")
    prog.text = emitted[0] if emitted else ""


def check_hazard(m, tally: Tally) -> None:
    """Strict lifting of the straddle fixture must raise PointerStraddle."""
    source = m.corpus.hazard_program()
    try:
        elf, _ = m.asm.assemble(m.asm.parse_assembly(source))
        img = m.elfio.read_elf(elf)
        m.lifter.lift(img, m.meta.decode_metadata(m.elfio.extract_section(img, ".ellf")),
                      mode="strict")
    except m.errors.PointerStraddle:
        tally.record("hazard", True, "")
        return
    except Exception as exc:  # any other outcome is a failed check
        tally.record("hazard", False, f"raised {type(exc).__name__}: {exc}")
        return
    tally.record("hazard", False, "strict lift of the hazard fixture succeeded")


def work_counts(m, programs) -> dict[str, int]:
    """Work done per pass, summed over the programs: the bases of every ratio."""
    counts = dict.fromkeys(WORK_COUNTS, 0)
    for prog in programs:
        lifted, text = run_lift(m, prog)
        img = m.elfio.read_elf(prog.elf)
        payload = m.elfio.extract_section(img, ".ellf")
        meta = m.meta.decode_metadata(payload)
        counts["lifter.instructions"] += len(lifted.instructions)
        counts["lifter.cfg_blocks"] += sum(len(cfg.blocks) for cfg in lifted.cfgs)
        counts["lifter.labels_minted"] += sum(1 for _ in lifted.labels.all_names())
        counts["lifter.labels_used"] += len(lifted.labels.used)
        counts["lifter.variables"] += len(lifted.variables)
        counts["lifter.diagnostics"] += len(lifted.diagnostics)
        counts["lifter.text_bytes"] += len(text.encode())
        counts["asm.source_lines"] += len(prog.source.splitlines())
        counts["elfio.alloc_bytes"] += sum(sec.size for sec in img.sections if sec.alloc)
        counts["meta.ellf_bytes"] += len(payload)
        for table, n in (("instructions", len(meta.instruction_regions)),
                         ("pointers", len(meta.pointers)), ("text", len(meta.text)),
                         ("stack", len(meta.stack)), ("data", len(meta.data))):
            counts[f"meta.records.{table}"] += n
    return counts


def run_stage(m, stage: str, programs, tally: Tally, tracer: Tracer | None = None):
    """One stage over every program, checked; returns (seconds, root spans)."""
    runner, check = RUNNERS[stage], CHECKS[stage]
    seconds, roots = 0.0, []
    for prog in programs:
        if tracer is None:
            elapsed, result = attempt(tally, stage, prog, runner, m, prog)
        else:
            with tracer.span(f"stage.{stage}") as root:
                elapsed, result = attempt(tally, stage, prog, runner, m, prog)
            roots.append(root)
        seconds += elapsed
        if result is not None:
            tally.record(stage, check(prog, result), f"{prog.name}: wrong output")
    return seconds, roots


def run_pass(m, programs, tally: Tally, tracer: Tracer | None = None):
    """Every stage over every program; returns (stage -> s, stage -> root spans)."""
    results = {stage: run_stage(m, stage, programs, tally, tracer) for stage in STAGES}
    return ({stage: r[0] for stage, r in results.items()},
            {stage: r[1] for stage, r in results.items()})


def run_cli(m, programs, workdir: Path, tally: Tally, tracer: Tracer) -> dict:
    """`ellf asm` then `ellf lift --strict` in-process, per program, on files."""
    totals = {"cli.asm_s": 0, "cli.lift_s": 0}
    for prog in programs:
        src, elf, out = (workdir / f"{prog.name}{ext}" for ext in (".s", ".elf", ".lifted.s"))
        src.write_text(prog.source)
        codes = []
        for metric, argv in (("cli.asm_s", ["asm", str(src), "-o", str(elf)]),
                             ("cli.lift_s", ["lift", str(elf), "--strict", "-o", str(out)])):
            with tracer.span(metric) as root, contextlib.redirect_stdout(io.StringIO()):
                codes.append(m.cli.main(argv))
            name, start, end, _ = tracer.spans[root]
            totals[metric] += (end - start) / 1e9
        ok = codes == [0, 0] and elf.read_bytes() == prog.elf and out.read_text() == prog.text
        tally.record("cli", ok, f"{prog.name}: exit codes {codes}")
    return totals


def median_of(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(values) for name, values in samples.items()}


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the sample count and the highest percentile with ten samples beyond it."""
    line = f"  {name:32s} median {statistics.median(values):.6g} {unit}  n={len(values)}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        line += f"  p{pct} {cut:.6g}"
    return line


def record_layers(layer, tracer, roots, cli, counts, overhead_ratio) -> None:
    """Add one traced pass's per-layer numbers to ``layer``."""
    per_stage = {stage: tracer.totals(roots[stage]) for stage in STAGES}
    for metric, (span, stage) in LAYER_TIMES.items():
        layer[metric].append(per_stage[stage][0][span] / 1e9)
    layer["lifter.lift_self_s"].append(per_stage["lift"][1]["lifter.lift"] / 1e9)
    for metric, (name, stage) in LAYER_CALLS.items():
        layer[metric].append(per_stage[stage][2][name])
    instructions = counts["lifter.instructions"]
    layer["isa.decode_one_per_instr"].append(per_stage["lift"][2]["isa.decode_one"] / instructions)
    layer["isa.encode_one_per_instr"].append(per_stage["asm"][2]["isa.encode_one"] / instructions)
    for metric, value in cli.items():
        layer[metric].append(value)
    layer["trace.overhead_ratio"].append(overhead_ratio)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_instr", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def setup(workload: str, seed: int):
    """Import ellf afresh and make the inputs; returns (modules, sources, seconds)."""
    start = time.perf_counter()
    purge_ellf()
    m = load_ellf()
    sources = make_sources(m, workload, seed)
    return m, sources, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    m, sources, first_setup = setup(args.workload, args.seed)
    tally = Tally()
    programs = [Program(name, source) for name, source in sources]
    for prog in programs:
        prepare(m, prog, tally)
    counts = work_counts(m, programs)
    hazard = args.workload == "corpus_roundtrip"

    # Set-up is repeated before every pass, so that its median is taken over
    # as many samples, and as long a stretch of the run, as the stages' are.
    # The stages keep using the modules of the first import.
    samples: dict[str, list[float]] = {"setup_s": [first_setup],
                                       **{f"{stage}_s": [] for stage in STAGES}}
    layer: dict[str, list[float]] = {name: [] for name in PER_LAYER if name not in WORK_COUNTS}
    tracer = Tracer() if args.trace else None
    with contextlib.ExitStack() as stack:
        workdir = Path(stack.enter_context(
            tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT))) if tracer else None
        deadline = time.perf_counter() + args.seconds
        while True:
            with modules_kept():
                _, again, setup_seconds = setup(args.workload, args.seed)
            gc.collect()  # frees the modules of the repeated import
            samples["setup_s"].append(setup_seconds)
            tally.record("setup", again == sources, "the same seed gave other inputs")
            if tracer is None:
                seconds, _ = run_pass(m, programs, tally)
            else:
                untraced, _ = run_stage(m, "lift", programs, tally)
                with tracer.installed():
                    seconds, roots = run_pass(m, programs, tally, tracer)
                    cli = run_cli(m, programs, workdir, tally, tracer)
                record_layers(layer, tracer, roots, cli, counts, seconds["lift"] / untraced)
            for stage in STAGES:
                samples[f"{stage}_s"].append(seconds[stage])
            if hazard:
                check_hazard(m, tally)
            if time.perf_counter() >= deadline:
                break
    if tracer is not None:
        tracer.write(ROOT / f".perfbench-trace-{args.workload}-{args.seed}.json")

    e2e = {**median_of(samples),
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "ellf_overhead": counts["meta.ellf_bytes"] / counts["elfio.alloc_bytes"],
           "roundtrip_pass": 1 - tally.lift_failed / tally.lift_attempted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for prog in programs:
        print(f"  input {prog.name}: source sha256 "
              f"{hashlib.sha256(prog.source.encode()).hexdigest()[:16]}, "
              f"elf sha256 {prog.elf_digest[:16]}")
    for name, values in samples.items():
        print(describe(name, values, "s"))
    for name, value in counts.items():
        print(f"  {name:32s} {value}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    if tracer is not None:
        metrics = {**median_of(layer), **counts}
        metrics = {name: {"value": metrics[name], "unit": layer_unit(name)}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
