import ast
import json
import pathlib
import shlex

README = pathlib.Path(__file__).parent.parent / "README.md"
GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


def test_readme_library_tour_runs():
    """Run README's python block; a line ending in a literal comment such as
    `# 0` or `# True` must evaluate to that literal."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(line, namespace)
        else:
            assert eval(code, namespace) == want, line


def test_readme_cli_commands_are_golden():
    """Each `adiclab` line of README's CLI block is a golden command, so
    `test_cli_output_matches_golden` pins its stdout byte for byte; the
    golden file's data files are read from `{tmp}`."""
    golden = json.loads(GOLDEN.read_text())
    argvs = [entry["argv"] for entry in golden["commands"]]
    block = README.read_text().split("\n## CLI\n", 1)[1]
    block = block.split("```\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("adiclab ")]
    assert lines
    for line in lines:
        argv = [f"{{tmp}}/{arg}" if arg in golden["files"] else arg
                for arg in shlex.split(line)[1:]]
        assert argv in argvs, line
