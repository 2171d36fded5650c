"""Traced server launcher: the stock ``repro`` CLI with layer wrappers.

Usage::

    python3 perfbench/launcher.py OUT.json net serve --points-file P -k 2 --port 0

Installs the wrappers of :mod:`layers` in this process, then runs the
unmodified ``repro.cli.main`` with the remaining arguments.  Counters
restart at the first ``GET /metrics``, which the benchmark client sends
when its measured phase begins, and are written to ``OUT.json`` after a
SIGTERM has drained the server and ``main`` has returned.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from common import use_program
from layers import LayerTimer, Patches, hook_gc, hook_loop_wait, install_build, perf


def _rows(op, args, out) -> None:
    op.elems += args[2].shape[0]  # ServingIndex.execute(self, kind, queries, k)


def install_server(timer: LayerTimer, patches: Patches, state: Dict[str, Any]) -> None:
    import repro.net.server as server
    from repro.core.online import MutableIndex
    from repro.net.server import NetServer
    from repro.serve.batcher import Batcher
    from repro.serve.index import ServingIndex

    install_build(timer, patches)
    patches.call(timer, ServingIndex, "execute", "serve", measure=_rows)
    patches.call(timer, Batcher, "submit", "serve")
    patches.call(timer, Batcher, "flush", "serve")
    patches.call(timer, Batcher, "swap_index", "serve", samples=True)

    def note_commit(op, args, info) -> None:
        state["commits"].append({
            "reused_fraction": info.reused_fraction,
            "touched_leaves": info.touched_leaves,
            "punted": bool(info.punted),
            "noop": bool(info.noop),
        })

    def note_ledger(op, args, out) -> None:
        if state["ledger"] is None:  # the served index's initial build
            machine = args[0].machine
            state["ledger"] = {
                "depth": machine.total.depth,
                "work": machine.total.work,
                "sections": {k: v.work for k, v in machine.sections.items()},
            }

    patches.call(timer, MutableIndex, "commit", "online", measure=note_commit, samples=True)
    patches.call(timer, MutableIndex, "snapshot", "online", measure=note_ledger, samples=True)
    # repro.net.server imported these from repro.net.http by name
    patches.coro(timer, server, "read_request", "net", op_name="parse")
    patches.call(timer, server, "json_response", "net", op_name="render")
    patches.coro(timer, NetServer, "_handle_conn", "net", op_name="conn")
    patches.coro(timer, NetServer, "_flusher", "net", op_name="flusher")

    # the client scrapes /metrics when its measured phase starts: count
    # from there, so the index build and the warm-up are left out
    handle_metrics = NetServer._handle_metrics

    def reset_then_handle_metrics(self, request, rid):
        if state["t_start"] is None:
            timer.reset()
            del state["commits"][:]
            state["t_start"] = perf()
        return handle_metrics(self, request, rid)

    patches.set(NetServer, "_handle_metrics", reset_then_handle_metrics)
    hook_loop_wait(timer, patches)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    use_program()
    import repro.cli

    timer = LayerTimer()
    patches = Patches()
    state: Dict[str, Any] = {"commits": [], "ledger": None, "t_start": None}
    install_server(timer, patches, state)
    unhook = hook_gc(timer)
    try:
        code = repro.cli.main(cli_args)
    finally:
        t_end = perf()
        unhook()
        patches.restore()
        t_start = state["t_start"] if state["t_start"] is not None else t_end
        with open(out_path, "w") as fh:
            json.dump({
                "wall_s": t_end - t_start,
                "ops": {name: op.to_dict() for name, op in timer.ops.items()},
                "commits": state["commits"],
                "ledger": state["ledger"],
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
