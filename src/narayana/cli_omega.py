"""The `omega` command: the Hasse diagram of the rewriting order on Dyck
paths, as DOT or JSON."""

import sys
from types import SimpleNamespace

from .cli_common import OMEGA_GUARD, _emit_json, _usage


def cmd_omega(args: SimpleNamespace) -> int:
    """Hasse diagram of the rewriting order, as DOT or JSON."""
    n = args.n
    # refused against the copy of the guard, before any library module loads
    if not 1 <= n <= OMEGA_GUARD:
        return _usage(f"n out of range: expected 1 <= n <= {OMEGA_GUARD}, got {n}")
    from .dyck import ls_set
    from .shelling import omega_n

    om = omega_n(n)
    words = om.labels
    annotations = {w: sorted(ls_set(w)) for w in words}
    edges = [(words[a], words[b]) for a, b in om.covers()]
    if args.format == "json":
        _emit_json(
            {
                "command": "omega",
                "edges": [list(edge) for edge in edges],
                "n": n,
                "nodes": [{"ls": annotations[w], "word": w} for w in words],
            }
        )
    else:
        lines = [f"digraph omega_{n} {{", "  rankdir = BT;"]
        for w in words:
            inner = ", ".join(str(i) for i in annotations[w])
            lines.append(f'  "{w}" [label="{w}\\nLS {{{inner}}}"];')
        lines += [f'  "{a}" -> "{b}";' for a, b in edges]
        # one write: with PYTHONUNBUFFERED a print per line costs a system call each
        sys.stdout.write("\n".join(lines) + "\n}\n")
    return 0
