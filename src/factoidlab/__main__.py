"""`python -m factoidlab`: the factoidlab command line."""

from .cli import main

if __name__ == "__main__":
    main()
