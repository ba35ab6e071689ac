"""The general command-line reader: every form that argparse accepts, and
every refusal.  narayana.cli reads a full-form command line itself and
imports this module for any other, --help and --version among them."""

from types import SimpleNamespace

from . import __version__
from .cli_common import UsageError, _library

HELP = ("-h", "--help")


def _is_value(word: str) -> bool:
    # as argparse reads a word: an option unless it does not start with "-",
    # is "-" alone, holds a space or reads as a negative number
    if word[:1] != "-" or word == "-" or " " in word:
        return True
    whole, dot, fraction = word[1:].partition(".")  # -\d+ or -\d*\.\d+
    return fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _option(word: str, names) -> tuple[str | None, str | None]:
    """The option of names that word spells, in full or as the unique
    prefix of a long option, with the value given after "=" if any;
    (None, None) for an unknown option."""
    if word in names:
        return word, None
    name, equals, value = word.partition("=")
    if equals and name in names:
        return name, value
    if word[1:2] != "-" and word[:2] in names:
        return word[:2], word[2:]  # a short option with its value attached
    if word.startswith("--"):
        matches = [option for option in names if option.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if equals else None
    return None, None


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value in kind:
            return value
        listed = ", ".join(map(repr, kind))
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None


def parse(commands: dict, argv: list[str]) -> tuple | None:
    """(handler, arguments) of the command that argv asks for, read by the
    table, the handler as its (module, function); None once --help or
    --version is printed.  Accepts what argparse accepts: --opt value,
    --opt=value, the unique prefix of a long option, and a negative number
    as a value.  A refused argv raises UsageError."""
    # as argparse does, every word up to "--" is read before any is used, so
    # that an ambiguous option is refused even after --help; the command is
    # the first word that is not an option
    end = argv.index("--") if "--" in argv else len(argv)
    marks = [None if _is_value(w) else _option(w, (*HELP, "--version")) for w in argv[:end]]
    at = marks.index(None) if None in marks else end
    unknown = []
    for word, (name, value) in zip(argv, marks[:at]):
        if name is None:
            unknown.append(word)
            continue
        if value is not None:
            raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if name == "--version":
            print(f"narayana {__version__}")
        else:
            print(_library("cli_help", "help_text")(commands, None))
        return None
    if at == len(argv):
        raise UsageError("the following arguments are required: command")
    command = _convert("command", tuple(commands), argv[at])
    _, handler, options = commands[command]
    words = argv[at + 1 :]
    if "--" in words:
        # every word from "--" on is positional, which no command takes
        unknown += words[words.index("--") :]
        words = words[: words.index("--")]
    marks = [None if _is_value(w) else _option(w, (*HELP, *options)) for w in words]
    values = {name: spec[1] for name, spec in options.items()}
    i = 0
    while i < len(words):
        name, value = marks[i] or (None, None)
        i += 1
        if name is None:
            unknown.append(words[i - 1])
        elif name in HELP or options[name][0] is bool:
            if value is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if name in HELP:
                print(_library("cli_help", "help_text")(commands, command))
                return None
            values[name] = True
        else:
            if value is None:
                if i == len(words) or marks[i] is not None:
                    raise UsageError(f"argument {name}: expected one argument")
                value, i = words[i], i + 1
            values[name] = _convert(name, options[name][0], value)
    # a required option has no default, and a given value is never None
    missing = [name for name, spec in options.items() if spec[2] and values[name] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return handler, SimpleNamespace(**{n[2:].replace("-", "_"): v for n, v in values.items()})
