"""The README's command line walkthrough runs as written: its commands, on
its synth, baseline and sweep configs, take synth -> baseline -> run ->
report to a report, so the docs never name a key or flag the CLI refuses."""

import csv
import json
import re
import shlex
from pathlib import Path

from protostream.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_sweep_walkthrough_runs(tmp_path, monkeypatch):
    text = README.read_text()
    # the first fenced block of protostream commands, continuation lines joined
    block = re.search(r"```\n(protostream synth .*?)```", text, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]
    # the synth, baseline and sweep configs are the first three JSON blocks
    configs = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)[:3]]
    monkeypatch.chdir(tmp_path)
    for name, payload in zip(("synth.json", "baseline.json", "sweep.json"), configs):
        Path(name).write_text(json.dumps(payload))
    assert [argv[0] for argv in commands] == ["synth", "baseline", "run", "report"]
    for argv in commands:
        if "--jobs" in argv:  # two workers are enough to take the pool path
            argv[argv.index("--jobs") + 1] = "2"
        assert main(argv) == 0, argv
    with open("report/omega_table.csv", newline="") as fh:
        methods = {row["method"] for row in csv.DictReader(fh)}
    assert methods == set(configs[2]["methods"])
