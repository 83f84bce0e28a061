import os
import sys

# Before anything imports numpy: lingmat then sets the BLAS thread
# variables the caller left unset to 1, so this process runs one thread and
# the split-read tests fork their workers in it.
import lingmat  # noqa: F401

sys.path.insert(0, os.path.dirname(__file__))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    tr = terminalreporter
    rows = []
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in tr.stats.get(status, []):
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            if "test_acceptance.py" in rep.nodeid:
                rows.append((rep.nodeid.split("::")[-1], word))
    if rows:
        tr.write_sep("-", "acceptance criteria")
        for name, word in sorted(set(rows)):
            tr.write_line(f"{word}  {name}")
