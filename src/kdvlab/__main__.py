"""``python -m kdvlab``: the command-line interface of :mod:`kdvlab.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
