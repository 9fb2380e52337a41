"""Run the command-line front end: python -m cubepack SUBCOMMAND ..."""

from .cli import main

if __name__ == "__main__":
    main()
