"""``python -m lasr``: the ``lasr`` command line tool, also from a checkout
(``PYTHONPATH=src python3 -m lasr ...``)."""

from .pipeline import main

if __name__ == "__main__":
    main()
