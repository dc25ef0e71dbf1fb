"""The README's Python examples run as written."""
import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_python_blocks_run_in_one_namespace(capsys):
    # the library quick start, then the discrete example, which reuses its g, w, p, x0, v0
    with open(README) as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[1].startswith("guaranteed ")
    assert namespace["cert"].verdict == "guaranteed" and namespace["traj"].dt == 1.0
