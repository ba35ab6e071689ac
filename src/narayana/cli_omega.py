"""The `omega` command: the Hasse diagram of the rewriting order on Dyck
paths, as DOT or JSON."""

import sys
from types import SimpleNamespace

from .cli_common import OMEGA_GUARD, _usage


def _listed(items: list[str], indent: int) -> str:
    # a JSON list of written items that starts on a line indented by indent
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + inner[:-2] + "]" if items else "[]"


def cmd_omega(args: SimpleNamespace) -> int:
    """Hasse diagram of the rewriting order, as DOT or JSON."""
    n = args.n
    # refused against the guard, before any library module loads
    if not 1 <= n <= OMEGA_GUARD:
        return _usage(f"n out of range: expected 1 <= n <= {OMEGA_GUARD}, got {n}")
    from .dyck import _bit_indices
    from .shelling import _ls_sets, _words, omega_n

    words = _words(n)
    annotations = {w: list(_bit_indices(centers)) for w, centers in zip(words, _ls_sets(n))}
    edges = [(words[a], words[b]) for a, b in omega_n(n).covers()]
    if args.format == "json":
        # json.dumps(payload, indent=2, sort_keys=True)'s bytes: every node
        # and every edge has one shape, so each list is written in one join
        nodes = [f'{{\n      "ls": {_listed(list(map(str, annotations[w])), 6)},\n'
                 f'      "word": "{w}"\n    }}' for w in words]
        pairs = [f'[\n      "{a}",\n      "{b}"\n    ]' for a, b in edges]
        sys.stdout.write(f'{{\n  "command": "omega",\n  "edges": {_listed(pairs, 2)},\n'
                         f'  "n": {n},\n  "nodes": {_listed(nodes, 2)}\n}}\n')
    else:
        lines = [f"digraph omega_{n} {{", "  rankdir = BT;"]
        for w in words:
            inner = ", ".join(map(str, annotations[w]))
            lines.append(f'  "{w}" [label="{w}\\nLS {{{inner}}}"];')
        lines += [f'  "{a}" -> "{b}";' for a, b in edges]
        # one write: with PYTHONUNBUFFERED a print per line costs a system call each
        sys.stdout.write("\n".join(lines) + "\n}\n")
    return 0
