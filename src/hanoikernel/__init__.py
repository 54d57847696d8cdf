"""Self-similar groups on the rooted ternary tree, with a verification
harness for the stabilizer structure of the Hanoi towers group.

The root exports only ``__version__``: import names from the submodules, so
that a program compiles and runs only the modules it uses."""

__version__ = "0.1.0"
