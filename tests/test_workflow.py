"""The CI workflow is valid YAML, every opgraph command it runs parses
with the CLI's parser and sets only the construction flags its construction
reads, and every committed file it compares an output against exists."""

import re
import shlex
from pathlib import Path

import yaml

from opgraph import cli

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _runs() -> list[str]:
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [step.get("run", "") for job in jobs.values() for step in job["steps"]]


def test_workflow_commands_parse():
    # the command before any pipe or redirect
    commands = [re.split(r"[|>]", line.strip())[0] for run in _runs() for line in run.splitlines()
                if line.strip().startswith("opgraph ")]
    assert {shlex.split(command)[1] for command in commands} == {"verify", "sweep", "demo"}
    for command in commands:
        args = cli.build_parser().parse_args(shlex.split(command)[1:])
        cli._read(args.construction, args, cli.SWEEP_READS if args.command == "sweep" else cli.READS)


def test_workflow_goldens_exist():
    # a renamed or deleted golden fails here, not only in the CI run
    goldens = [shlex.split(line)[2] for run in _runs() for line in run.splitlines()
               if line.strip().startswith("cmp ")]
    assert goldens
    for golden in goldens:
        assert golden.startswith("tests/data/"), golden
        assert (ROOT / golden).is_file(), golden
