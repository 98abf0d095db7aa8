"""Measurements that need a fresh interpreter; run.py starts one per probe.

    python3 bench/probe.py setup SRC CONFIG           -> seconds for import + config load
    python3 bench/probe.py rss SRC CONFIG SUBCOMMAND OUT -> {"rc": .., "peak_rss_kb": ..}

The rss probe reads VmHWM, the peak RSS of this process's own address
space. ``ru_maxrss`` would do on its own only when the parent is small:
Linux carries the parent's peak into the child's ``ru_maxrss`` at exec.
"""

from __future__ import annotations

import resource
import sys
import time


def _peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    kind, src, config = sys.argv[1:4]
    sys.path.insert(0, src)
    if kind == "setup":
        t0 = time.perf_counter()
        import lgsim.cli  # noqa: F401
        from lgsim.config import load_config

        load_config(config)
        print(repr(time.perf_counter() - t0))
        return

    import contextlib
    import io
    import json
    import warnings

    from lgsim import cli

    subcommand, out = sys.argv[4:6]
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main([subcommand, "--config", config, "--out", out])
    print(json.dumps({"rc": rc, "peak_rss_kb": _peak_rss_kb()}))


if __name__ == "__main__":
    main()
