"""Traced subprocess entry: time ``import repro.cli``, install the layer
wrappers, then run the public CLI unchanged.

    python perfbench/entry.py <span_dir> <role> <app> <spawned> <repro args...>

``<app>`` tags the process's spans (``-`` for none); ``<spawned>`` is the
``time.time()`` at which the parent started this process (``-`` if not
measured), so interpreter start-up is charged to the ``cli`` layer too.
Spans are written to ``<span_dir>`` when the process (and each forked
child) ends. The untraced runs call ``python -m repro`` directly, never
this file.
"""

import time

STARTED = time.time()

import sys  # noqa: E402 — after the start-up timestamp


def main() -> int:
    span_dir, role, app, spawned = sys.argv[1:5]
    app = None if app == "-" else app
    import spans

    importing = time.time()
    import repro.cli

    tracer = spans.Tracer(span_dir, role)
    if spawned != "-":
        tracer.add_span("cli:start", float(spawned), STARTED, app)
    tracer.add_span("cli:import", importing, time.time(), app)
    tracer.set_app(app)
    # a one-shot analyze imports no cache or serve code; keep it that way
    spans.install(tracer, eager=role != "cli")
    tracer.enable_exit_dump()
    span = tracer.begin("cli:main")
    try:
        return repro.cli.main(sys.argv[5:])
    finally:
        tracer.end(span)


if __name__ == "__main__":
    sys.exit(main())
