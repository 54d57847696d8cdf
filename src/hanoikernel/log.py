"""The package's log lines, at no import cost to a run that asks for none.

Every package line is INFO, and no handler takes a record below WARNING
until a program imports and configures the logging module. So while that
module is not loaded there is no line to emit, and these helpers leave it
unloaded; cli imports it only when LOGLEVEL is set to a level other than
error.
"""

from __future__ import annotations

import sys


def enabled(name: str) -> bool:
    """Whether logger `name` would emit an INFO line now."""
    logging = sys.modules.get("logging")
    return logging is not None and logging.getLogger(name).isEnabledFor(logging.INFO)


def info(name: str, msg: str, *args: object) -> None:
    """`logging.getLogger(name).info(msg, *args)` once logging is loaded;
    the record names the caller's line, not this one."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(msg, *args, stacklevel=2)
