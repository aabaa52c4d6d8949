"""``python -m repro`` and the ``repro-pata`` script."""

from .cli import main
from .heap import exit_process


def run() -> None:
    """Run the CLI, then end the process without interpreter teardown."""
    exit_process(main())


if __name__ == "__main__":
    run()
