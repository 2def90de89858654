"""The benchmark wraps package functions by name; a rename must fail here, not only in CI."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one short job per CLI path the benchmark traces
COMMANDS = [
    ["torsion", "z1^3", "--basis", "20", "--sectors", "20"],
    ["index", "z1^3", "--t", "1", "--samples", "2000"],
    ["index", "z1^3", "--t", "1", "--method", "quadrature", "--nodes", "16"],
    ["weights", "z1^3 + z2^4"],
    ["verify", "oscillator-consistency"],
]


def test_benchmark_wrappers_install_and_run():
    code = textwrap.dedent(f"""
        import contextlib
        import io
        import sys

        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        import spans
        from singspect import cli
        from singspect.parametrix import build_U
        from singspect.poly import parse

        spans.install_spans(spans.Recorder())
        spans.install_counters(spans.Recorder())
        for argv in {COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        assert all(len(u.parts) for u in build_U(parse("z1^3", 1), 2).U)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
