"""The CI workflow is valid YAML, it asks each command and the top level
for help, every other opgraph command it runs parses with the CLI's parser
and sets only the construction flags its construction reads, and every
committed file it compares an output against exists."""

import re
import shlex
from pathlib import Path

import pytest
import yaml

from opgraph import cli

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _runs() -> list[str]:
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [step.get("run", "") for job in jobs.values() for step in job["steps"]]


def test_workflow_commands_parse():
    # the command before any pipe or redirect
    commands = [shlex.split(re.split(r"[|>]", line.strip())[0])[1:] for run in _runs()
                for line in run.splitlines() if line.strip().startswith("opgraph ")]
    helps = [argv[:-1] for argv in commands if argv[-1:] == ["--help"]]
    assert sorted(helps) == [[], ["demo"], ["sweep"], ["verify"]]
    for argv in helps:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0
    runs = [argv for argv in commands if argv[-1:] != ["--help"]]
    assert {argv[0] for argv in runs} == {"verify", "sweep", "demo"}
    for argv in runs:
        args = cli.build_parser().parse_args(argv)
        cli._read(args.construction, args, cli.SWEEP_READS if args.command == "sweep" else cli.READS)


def test_workflow_goldens_exist():
    # a renamed or deleted golden fails here, not only in the CI run
    goldens = [shlex.split(line)[2] for run in _runs() for line in run.splitlines()
               if line.strip().startswith("cmp ")]
    assert goldens
    for golden in goldens:
        assert golden.startswith("tests/data/"), golden
        assert (ROOT / golden).is_file(), golden
