import os
import sys

from .cli import main


def entry() -> int:
    """``cli.main``, ending with exit 1 and no traceback when stdout closes early."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:  # e.g. behind `| head`: exit flushes stdout again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(entry())
