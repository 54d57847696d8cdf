import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs_as_written():
    """The README's library example uses only submodule names, which are
    all the package root leaves to a caller."""
    with open(README) as handle:
        text = handle.read()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["report"].kernel_type == "Klein four-group"
    assert namespace["analysis"].q_order(4, 1) == 4
