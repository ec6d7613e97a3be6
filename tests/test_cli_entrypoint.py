"""The module entry point (``python -m repro``) in a real subprocess."""

import subprocess
import sys


class TestModuleEntryPoint:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_list(self):
        result = self.run_cli("list")
        assert result.returncode == 0
        assert "figure11" in result.stdout

    def test_static_table(self):
        result = self.run_cli("table4")
        assert result.returncode == 0
        assert "Twitter" in result.stdout

    def test_unknown_exits_nonzero(self):
        result = self.run_cli("figure99")
        assert result.returncode == 2
        assert "unknown experiment" in result.stderr

    def test_console_script_help(self):
        result = self.run_cli("--help")
        # argparse prints help and exits 0 when no experiment id is given
        # with --help.
        assert result.returncode == 0
        assert "Reproduce experiments" in result.stdout

    def test_serve_does_not_import_the_evaluation_harness(self):
        # -X importtime lists every module the process imported, one per
        # stderr line, ending with its dotted name.
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "--wal-dir" in result.stdout
        imported = {
            line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "repro.cli" in imported and "repro.feed" in imported
        assert not {
            name
            for name in imported
            if name.split(".")[:2] in (["repro", "eval"], ["repro", "social"])
        }
