"""``python -m qdiode``: the same entry point as the ``qdiode`` console script."""

from .cli import main

if __name__ == "__main__":
    main()
