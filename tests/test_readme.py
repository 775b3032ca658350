"""README.md matches the code: every ``python`` code block runs as written,
the config table lists the config file's keys, and "Artifacts" lists the
run record's.

Each block runs in a fresh namespace, and the problem registry is restored
after it, so an example that registers a problem leaves no trace.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from copsl.config import RunConfig
from copsl.trainer import RunRecord

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, registry):
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})


def test_config_table_lists_every_key_in_field_order():
    table = TEXT.split("### Config file", 1)[1].split("\n### ", 1)[0]
    key_cells = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    keys = [key for cell in key_cells for key in re.findall(r"`([a-z_0-9]+)`", cell)]
    assert keys == ["config_version"] + [f.name for f in dataclasses.fields(RunConfig)]


def test_artifacts_list_every_record_key_in_field_order():
    artifacts = TEXT.split("\n### Artifacts\n", 1)[1]
    record = artifacts.split("`run_seed<S>.json`", 1)[1].split("\n- `", 1)[0]
    keys = re.findall(r"^  - `([a-z_]+)`:", record, flags=re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(RunRecord)]
