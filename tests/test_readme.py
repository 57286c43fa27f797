"""README's "Library use" block runs as written, with the top-level names
it imports."""

import re

from conftest import REPO_ROOT


def test_the_library_use_block_stops_at_tolerance_with_no_violations():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    outcome = namespace["outcome"]
    assert outcome.stop_reason == "tolerance"
    assert outcome.total_violations == 0
