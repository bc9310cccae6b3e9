"""The kernel mode the end-to-end harness records in each run's info."""


def kernel_mode() -> str:
    """Always ``"python"``: every graph kernel is plain Python."""
    # benchmarks/e2e/run.py is the only reader of this name.
    return "python"
