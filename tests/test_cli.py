"""The `ellf` command line, driven through ``cli.main`` on real files."""

import random

import pytest

from ellf import cli, elfio
from ellf.corpus import corpus_programs


def run(capsys, *argv):
    code = cli.main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    assert code in (cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_IO)
    assert "Traceback" not in err
    return code, out, err


@pytest.fixture
def assembled(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(corpus_programs()["06_dispatch3"])
    elf = tmp_path / "prog.elf"
    code, out, _ = run(capsys, "asm", source, "-o", elf)
    assert code == cli.EXIT_OK and "metadata bytes" in out
    return elf


def test_asm_lift_roundtrip(tmp_path, capsys, assembled):
    lifted = tmp_path / "lifted.s"
    code, out, _ = run(capsys, "lift", assembled, "--strict", "-o", lifted)
    assert code == cli.EXIT_OK and out.startswith("lifted ")
    code, out, _ = run(capsys, "roundtrip", lifted)
    assert code == cli.EXIT_OK
    assert out.splitlines() == ["byte identity:      PASS",
                                "metadata fixpoint:  PASS",
                                "text fixpoint:      PASS"]


def test_missing_input_is_an_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "lift", tmp_path / "absent.elf", "-o", tmp_path / "x.s")
    assert code == cli.EXIT_IO and err.startswith("error: cannot read")


def test_truncated_elf_fails_cleanly(tmp_path, capsys, assembled):
    data = assembled.read_bytes()
    broken = tmp_path / "broken.elf"
    for length in sorted({0, 3, 16, 63, 64, len(data) // 2, len(data) - 1}):
        broken.write_bytes(data[:length])
        code, _, err = run(capsys, "lift", broken, "--strict", "-o", tmp_path / "x.s")
        assert code == cli.EXIT_DOMAIN and err.startswith("error: "), length


def test_corrupted_ellf_fails_cleanly(tmp_path, capsys, assembled):
    data = assembled.read_bytes()
    ellf = next(sec for sec in elfio.read_elf(data).sections if sec.name == ".ellf")
    broken = tmp_path / "broken.elf"
    lifted = tmp_path / "x.s"
    rng = random.Random(0xC11)
    codes = set()
    for _ in range(150):
        blob = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            blob[ellf.file_offset + rng.randrange(ellf.size)] = rng.randrange(256)
        broken.write_bytes(bytes(blob))
        for argv in (("lift", broken, "-o", lifted), ("lift", broken, "--strict",
                                                       "-o", lifted),
                     ("extract", broken), ("stats", broken)):
            codes.add(run(capsys, *argv)[0])
    assert cli.EXIT_DOMAIN in codes


@pytest.mark.parametrize("command", ["asm", "roundtrip"])
def test_source_that_is_not_utf8_fails_cleanly(tmp_path, capsys, command):
    source = tmp_path / "prog.s"
    source.write_bytes(b".section .text base=0x1000\n.func f\n    ret \xff\n.endfunc\n")
    argv = [command, source] + (["-o", tmp_path / "prog.elf"] if command == "asm" else [])
    code, _, err = run(capsys, *argv)
    assert code == cli.EXIT_DOMAIN
    assert err.startswith("error: AsmSyntaxError: line 3: ") and "not UTF-8" in err


@pytest.mark.parametrize("option", ["--base-text", "--base-data"])
@pytest.mark.parametrize("value", ["-1", "-0x1000", hex(1 << 64)])
def test_base_outside_the_address_space_is_a_usage_error(tmp_path, capsys, option, value):
    source = tmp_path / "prog.s"
    source.write_text(".section .text\n.func f\n    ret\n.endfunc\n.section .data\n"
                      "    .byte 1\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["asm", str(source), f"{option}={value}", "-o", str(tmp_path / "x.elf")])
    assert info.value.code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"argument {option}: {value} is outside the 64-bit address space" in err
    assert not (tmp_path / "x.elf").exists()
