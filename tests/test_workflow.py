"""The CI workflow is valid YAML, it asks each command and the top level
for help, every other opgraph command it runs parses with the CLI's parser
and sets only the construction flags its construction reads, it verifies
every construction, and every committed file it compares an output against
exists, with the output it writes listed in .gitignore."""

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
    # every construction is verified through the console script
    assert {argv[1] for argv in runs if argv[0] == "verify"} == set(cli.CONSTRUCTIONS)
    for argv in runs:
        args = cli.build_parser().parse_args(argv)
        cli._read(args)


def test_workflow_goldens_exist():
    # a renamed or deleted golden fails here, not only in the CI run; the
    # output compared against it is written at the root and ignored by git
    pairs = [shlex.split(line)[1:3] for run in _runs() for line in run.splitlines()
             if line.strip().startswith("cmp ")]
    assert pairs
    ignored = (ROOT / ".gitignore").read_text().splitlines()
    for output, golden in pairs:
        assert golden.startswith("tests/data/"), golden
        assert (ROOT / golden).is_file(), golden
        assert f"/{output}" in ignored, output
