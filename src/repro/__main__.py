"""Entry point of ``python -m repro`` and of the ``repro`` script.

``repro sim …`` runs the simulator's commands (:mod:`repro.sim.cli`);
every other command is the engine's (:mod:`repro.cli`). The simulator
is imported on the ``sim`` route only, so no engine command loads it.
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["sim"]:
        from repro.sim.cli import main as sim_main

        return sim_main(argv[1:])
    from repro.cli import main as engine_main

    return engine_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
