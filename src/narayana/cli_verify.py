"""The `verify` command: run one verification check of the library and
render the witnesses it returns; exit 1 when there are any."""

import time
from types import SimpleNamespace

from . import _library
from .cli_common import SAMPLES_LIMIT, VERIFY_CHECKS, _emit_json, _stderr, _usage


def cmd_verify(args: SimpleNamespace) -> int:
    """Run one verification check; exit 1 with witnesses when it fails."""
    check, n = args.check, args.n
    module, function, limit = VERIFY_CHECKS[check]
    if not 1 <= n <= limit:
        return _usage(f"check {check} supports 1 <= n <= {limit}, got {n}")
    if not 1 <= args.samples <= SAMPLES_LIMIT:
        return _usage(f"samples must be 1 to {SAMPLES_LIMIT}, got {args.samples}")
    if args.ref_path is not None and check != "main-theorem":
        return _usage(f"--ref-path applies to check main-theorem only, not {check}")
    parameters: dict = {"n": n}
    refs = None
    if check == "main-theorem":
        from .dyck import dyck_word, enumerate_paths

        ref = args.ref_path if args.ref_path is not None else "v" * n + "h" * n
        if ref == "random":
            import random

            parameters.update({"ref_path": "random", "samples": args.samples, "seed": args.seed})
            # each reference indexes the enumeration, uniformly
            rng, words = random.Random(args.seed), list(enumerate_paths(n))
            refs = [rng.choice(words) for _ in range(args.samples)]
        else:
            try:
                w = dyck_word(ref)
            except ValueError as exc:
                return _usage(f"bad ref-path: {exc}")
            if len(w) // 2 != n:
                return _usage(f"ref-path has semilength {len(w) // 2}, expected {n}")
            parameters["ref_path"] = w
            refs = [w]
    run = _library(module, function)
    started = time.monotonic()
    witnesses = run(n) if refs is None else run(n, refs)
    elapsed = time.monotonic() - started
    verdict = "pass" if not witnesses else "fail"
    if args.format == "json":
        _emit_json(
            {
                "check": check,
                "command": "verify",
                "parameters": parameters,
                "verdict": verdict,
                "witnesses": witnesses,
            }
        )
    else:
        print(f"check {check}")
        for key in sorted(parameters):
            print(f"{key.replace('_', '-')} {parameters[key]}")
        print(f"verdict {verdict}")
        if witnesses:
            import json

            for witness in witnesses:
                print(f"witness {json.dumps(witness, sort_keys=True)}")
    _stderr(f"elapsed {elapsed:.3f}s\n")
    return 0 if verdict == "pass" else 1
