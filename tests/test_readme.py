import ast
import pathlib

README = pathlib.Path(__file__).parent.parent / "README.md"


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
