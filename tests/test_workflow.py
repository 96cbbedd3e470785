"""The CI workflow is valid YAML, and every opgraph command it runs parses
with the CLI's parser and sets only the construction flags its construction
reads."""

import re
import shlex
from pathlib import Path

import yaml

from opgraph import cli

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_commands_parse():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    runs = [step.get("run", "") for job in jobs.values() for step in job["steps"]]
    # the command before any pipe or redirect
    commands = [re.split(r"[|>]", line.strip())[0] for run in runs for line in run.splitlines()
                if line.strip().startswith("opgraph ")]
    assert {shlex.split(command)[1] for command in commands} == {"verify", "sweep", "demo"}
    for command in commands:
        args = cli.build_parser().parse_args(shlex.split(command)[1:])
        cli._read(args.construction, args, cli.SWEEP_READS if args.command == "sweep" else cli.READS)
