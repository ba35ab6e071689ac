"""The `narayana` and `qnarayana` commands: a row of Narayana numbers, and
one q-Narayana polynomial by one route or all routes compared."""

from types import SimpleNamespace

from . import CLOSED_FORM_LIMIT, ROUTES, _library
from .cli_common import _emit_json, _usage


def cmd_narayana(args: SimpleNamespace) -> int:
    """Row of N(n, k) for k = 0..n-1 plus its sum, the Catalan number."""
    n = args.n
    if not 1 <= n <= CLOSED_FORM_LIMIT:
        return _usage(f"n out of range: expected 1 <= n <= {CLOSED_FORM_LIMIT}, got {n}")
    from .qpoly import narayana

    row = [narayana(n, k) for k in range(n)]
    total = sum(row)
    if args.format == "json":
        _emit_json({"command": "narayana", "n": n, "row": row, "sum": total})
    elif args.format == "csv":
        print("k,narayana")
        for k, value in enumerate(row):
            print(f"{k},{value}")
        print(f"sum,{total}")
    else:
        print(", ".join(str(value) for value in row))
        print(f"sum {total}")
    return 0


def cmd_qnarayana(args: SimpleNamespace) -> int:
    """One q-Narayana polynomial, by a single route or all routes compared."""
    n, k, route = args.n, args.k, args.route
    if n < 1:
        return _usage(f"n must be positive, got {n}")
    if k < 0:
        return _usage(f"k must be nonnegative, got {k}")
    limit = CLOSED_FORM_LIMIT if route == "all" else ROUTES[route][2]
    if n > limit:
        return _usage(f"route {route} is limited to n <= {limit}")
    if route != "all":
        module, function, _ = ROUTES[route]
        poly = _library(module, function)(n, k)
        if args.format == "json":
            _emit_json(
                {
                    "coefficients": list(poly.coeffs),
                    "command": "qnarayana",
                    "k": k,
                    "n": n,
                    "route": route,
                }
            )
        else:
            print(poly)
        return 0
    routes = {
        name: _library(module, function)(n, k)
        for name, (module, function, largest) in ROUTES.items()
        if n <= largest
    }
    verdict = "pass" if len({p.coeffs for p in routes.values()}) == 1 else "fail"
    if args.format == "json":
        _emit_json(
            {
                "command": "qnarayana",
                "k": k,
                "n": n,
                "routes": {name: list(p.coeffs) for name, p in routes.items()},
                "verdict": verdict,
            }
        )
    else:
        for name in sorted(routes):
            print(f"{name}: {routes[name]}")
        print(f"verdict {verdict}")
    return 0 if verdict == "pass" else 1
