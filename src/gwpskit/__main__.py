"""`python -m gwpskit ...` runs the command line, also from a checkout that is
not installed (with its src/ directory on PYTHONPATH)."""

from .cli import main

main()
