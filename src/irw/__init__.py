"""Workbench for infinitary term rewriting at desk scale.

Submodules: terms (finite and rational terms), rewrite (matching, traces
with omega-limit closure, bounded search), turing (deterministic
two-sided machines), omega (non-deterministic one-sided machines on
omega-tapes), encode (machine-to-system compilers and the word-to-term
map), laws (executable checks), machines (file formats and fixtures),
cli (the `irw` command).
"""

import gc
from functools import wraps

__version__ = "0.1.0"


def _collector_paused(fn):
    """Run fn with Python's cyclic garbage collector paused: turned off
    only if it is on, and on again when fn returns or raises, so a nested
    call or a caller that turned it off is left alone.  Cycles fn drops are
    collected after it returns.  The switch is process-wide, so a thread
    in a paused call pauses every thread, and the first paused call to end
    resumes collection under the others; irw starts no thread.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused
