"""Tests of the benchmark's own code: inputs, tracing and metric names.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import hashlib
import json
import re
import sys

import pytest

import generate
import run
from tracing import Tracer, is_ellf

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def m():
    return run.load_ellf()


@pytest.mark.parametrize("make", [generate.code_heavy, generate.data_heavy])
def test_same_seed_gives_same_source_and_elf(m, make):
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert first != other

    def elf_digest(source):
        elf, _ = m.asm.assemble(m.asm.parse_assembly(source))
        return hashlib.sha256(elf).hexdigest()

    assert elf_digest(first) == elf_digest(again)


def test_seed_does_not_change_the_amount_of_work(m):
    def shape(source):
        _, meta = m.asm.assemble(m.asm.parse_assembly(source))
        return (sum(r.count for r in meta.instruction_regions), len(meta.pointers),
                len(meta.text), len(meta.stack), len(meta.data),
                sum(r.size for r in meta.data))

    assert shape(generate.code_heavy(1)) == shape(generate.code_heavy(2))
    assert shape(generate.data_heavy(1)) == shape(generate.data_heavy(2))


def _bindings():
    """Every attribute of every ellf module and of the wrapped class."""
    mods = {name: mod for name, mod in sys.modules.items() if is_ellf(name)}
    found = {(name, attr): value for name, mod in mods.items()
             for attr, value in vars(mod).items()}
    label_map = sys.modules["ellf.lifter"].LabelMap
    found.update({("LabelMap", attr): value for attr, value in vars(label_map).items()})
    return found


def test_traced_pass_sees_every_layer_and_restores_the_wrappers(m):
    source = m.corpus.corpus_programs()["07_dispatch8"]
    tally = run.Tally()
    prog = run.Program("07_dispatch8", source)
    run.prepare(m, prog, tally)
    before = _bindings()

    tracer = Tracer()
    with tracer.installed():
        assert m.lifter.build_cfg is not before[("ellf.lifter", "build_cfg")]
        _, roots = run.run_pass(m, [prog], tally, tracer)

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tally.failed == 0

    inclusive, self_ns, calls = tracer.totals(roots["lift"])
    for span in ("lifter.lift", "lifter.build_cfg", "meta.validate_metadata",
                 "elfio.load_image", "lifter.emit_assembly"):
        assert inclusive[span] > 0, span
    assert calls["elfio.load_image"] == 2  # validate and lift each load the image
    assert calls["isa.decode_one"] >= 2 * 10  # validate and lift each decode
    assert calls["lifter.LabelMap.lookup"] > 0
    assert 0 <= self_ns["lifter.lift"] < inclusive["lifter.lift"]
    assert tracer.totals(roots["asm"])[2]["isa.encode_one"] > 0


def test_tracer_counts_per_root_and_rejects_double_install(m):
    isa = sys.modules["ellf.isa"]
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(RuntimeError):
            tracer.install()
        with tracer.span("stage.a") as a:
            isa.encode_one("ret", [])
            m.meta.decode_metadata(m.meta.encode_metadata(m.meta.EllfMetadata()))
        with tracer.span("stage.b") as b:
            pass
    inclusive, _, calls = tracer.totals([a])
    assert calls["isa.encode_one"] == 1 and calls["meta.decode_metadata"] == 1
    assert inclusive["meta.decode_metadata"] <= inclusive["stage.a"]
    assert tracer.totals([b])[2] == {"stage.b": 1}


def test_metric_and_workload_names(m):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = [metric["name"] for metric in bench["end_to_end"]]
    layers = [metric["name"] for metric in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    for name in e2e + layers + workloads:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    assert workloads == list(run.WORKLOADS)
    units = {metric["name"]: metric["unit"] for metric in bench["end_to_end"] + bench["per_layer"]}
    assert {name: units[name] for name in run.END_TO_END} == run.END_TO_END
    assert all(units[name] == run.layer_unit(name) for name in run.PER_LAYER)
