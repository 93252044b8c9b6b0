"""Run the ``ddeosc`` command in-process, on an argv as a shell would pass it."""

from click.testing import CliRunner, Result

from ddeosc.cli import main


def run_cli(*args) -> Result:
    """Invoke ``ddeosc`` with these arguments, each turned to text."""
    return CliRunner().invoke(main, [str(a) for a in args])
