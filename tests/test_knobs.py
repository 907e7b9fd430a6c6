"""The knob table: one precedence rule, sources, env errors, CLI flags,
and the table in docs/observability.md."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import knobs
from repro.cli import _parser, main

DOC = Path(__file__).resolve().parents[1] / "docs" / "observability.md"

#: A valid non-default value per knob, in its string (env/CLI) form,
#: and what it resolves to.
GOOD = {
    "tile_nnz": ("77", 77),
    "assembly_dtype": ("float32", "float32"),
    "workers": ("2", 2),
    "serve_tile_bytes": ("4096", 4096),
    "serve_dtype": ("float32", "float32"),
    "serve_user_block": ("7", 7),
    "shard_bytes": (str(2 << 20), 2 << 20),
}

#: The CLI flag of every knob that has one, with values its parse rejects.
#: The serving knobs have fixed defaults, so "auto" is a bad value too.
FLAGS = {
    "tile_nnz": ("--tile-nnz", "0"),
    "assembly_dtype": ("--assembly-dtype", "float16"),
    "workers": ("--workers", "0"),
    "serve_tile_bytes": ("--tile-bytes", "0", "auto"),
    "serve_dtype": ("--serve-dtype", "float16", "auto"),
    "shard_bytes": ("--shard-bytes", "5"),
}

#: Environment values each knob rejects besides "bogus".
BAD_ENV = {"serve_tile_bytes": ("auto",), "serve_dtype": ("auto",)}

TABLE = {k.name: k for k in knobs.table()}


@pytest.fixture
def no_knob_env(monkeypatch):
    for knob in TABLE.values():
        monkeypatch.delenv(knob.env, raising=False)


def test_table_holds_the_seven_knobs():
    assert set(TABLE) == set(GOOD)
    for name, knob in TABLE.items():
        assert knob.env == "REPRO_" + name.upper()


@pytest.mark.parametrize("name", sorted(GOOD))
def test_precedence_and_source(name, monkeypatch, no_knob_env):
    knob = TABLE[name]
    raw, value = GOOD[name]
    assert knob.source() == "default"
    assert knob.resolve() == knob.default != value
    monkeypatch.setenv(knob.env, "")  # empty counts as unset
    assert knob.source() == "default"
    monkeypatch.setenv(knob.env, raw)
    assert (knob.resolve(), knob.source()) == (value, "env")
    knob.configure(knob.default)
    assert (knob.resolve(), knob.source()) == (knob.default, "configured")
    assert (knob.resolve(raw), knob.source(raw)) == (value, "argument")
    knob.configure(None)
    assert knob.source() == "env"


@pytest.mark.parametrize("name", sorted(GOOD))
def test_bad_env_value_names_the_variable(name, monkeypatch):
    knob = TABLE[name]
    for bad in ("bogus",) + BAD_ENV.get(name, ()):
        monkeypatch.setenv(knob.env, bad)
        with pytest.raises(ValueError, match=f"^{knob.env}='{bad}': "):
            knob.resolve()


def test_effective_and_reset(monkeypatch, no_knob_env):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    TABLE["assembly_dtype"].configure("float32")
    eff = knobs.effective(tile_nnz=5)
    assert list(eff) == list(TABLE)
    assert eff["assembly_dtype"] == ("float32", "configured")
    assert eff["workers"] == (3, "env")
    assert eff["tile_nnz"] == (5, "argument")
    assert eff["serve_dtype"] == ("float64", "default")
    knobs.reset()
    assert knobs.effective()["assembly_dtype"] == ("float64", "default")
    with pytest.raises(ValueError, match="unknown knobs"):
        knobs.effective(colour="red")


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a bad choice itself
        return exc.code


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_cli_flag_bad_value_exits_2(name, capsys):
    flag, *bads = FLAGS[name]
    for bad in bads:
        assert _exit_code(["list", flag, bad]) == 2
        assert bad in capsys.readouterr().err
        assert TABLE[name].source() != "configured"


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_cli_flag_configures_its_knob(name, capsys):
    flag = FLAGS[name][0]
    raw, value = GOOD[name]
    assert main(["list", flag, raw]) == 0
    assert (TABLE[name].resolve(), TABLE[name].source()) == (value, "configured")


@pytest.mark.parametrize("flag", ["--assembly", "--solver"])
def test_retired_variant_flags_are_unknown_arguments(flag, capsys):
    """The assembly and S3 variants are no longer knobs."""
    assert _exit_code(["list", flag, "binned"]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _doc_rows() -> dict[str, tuple[str, str, str]]:
    """``{knob: (env, flag, default)}`` from the docs' knob table."""
    rows = {}
    for line in DOC.read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].startswith("REPRO_"):
            rows[cells[0]] = tuple(cells[1:])
    return rows


def _doc_default(cell: str):
    """A default as the docs write it: ``8 MiB`` is 8 << 20."""
    mib = re.fullmatch(r"(\d+) MiB", cell)
    if mib:
        return int(mib.group(1)) << 20
    return int(cell) if cell.isdigit() else cell


def test_docs_knob_table_matches_the_code():
    flags = {
        action.dest: action.option_strings[0]
        for action in _parser()._actions
        if action.option_strings
    }
    documented = {
        name: (env, None if flag == "none" else flag, _doc_default(default))
        for name, (env, flag, default) in _doc_rows().items()
    }
    assert documented == {
        k.name: (k.env, flags.get(k.name), k.default) for k in TABLE.values()
    }
