"""Legacy shim so `pip install -e .` works without network access.

The repository has no pyproject.toml: setuptools' automatic discovery
finds the one package under `src/` and names the distribution after it
(`repro`).  This file only enables the setuptools develop-mode fallback
on environments without the `wheel` package (offline build isolation
disabled).
"""

from setuptools import setup

setup()
