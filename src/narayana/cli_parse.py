"""The general command-line reader: every form that argparse accepts, every
refusal, and the --help text, written from the parser's table.  narayana.cli
reads a full-form command line itself and imports this module for any other,
--help and --version among them."""

from types import SimpleNamespace

from . import __version__
from .cli_common import UsageError

HELP = ("-h", "--help")
HELP_COLUMN = 22  # the widest option column that --help keeps on one line


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


def help_text(commands: dict, command: str | None) -> str:
    """The --help text of the program, or of one command, from the table."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        usage = "[-h] [--version] command ..."
        summary = "Exact Narayana, q-Narayana, and shelling computations on Dyck paths."
        sections = {"commands": [(name, entry[0]) for name, entry in commands.items()]}
        rows.append(("--version", "show the version and exit"))
    else:
        summary, _, options = commands[command]
        usage, sections = f"{command} [-h]", {}
        for name, (kind, default, required, text) in options.items():
            if kind is bool:
                spelled = name
            elif isinstance(kind, tuple):
                spelled = f"{name} {{{','.join(kind)}}}"
            else:
                spelled = f"{name} {name[2:].upper().replace('-', '_')}"
            usage += f" {spelled}" if required else f" [{spelled}]"
            if default is not None and kind is not bool:
                text = f"{text} (default {default})"
            rows.append((spelled, text))
    sections["options"] = rows
    blocks = [f"usage: narayana {usage}", summary]
    for title, block in sections.items():
        # a left column wider than HELP_COLUMN puts its help on the next line
        width = min(max(len(left) for left, _ in block), HELP_COLUMN)
        lines = [f"{title}:"]
        for left, right in block:
            if len(left) > width:
                lines += [f"  {left}", f"  {'':{width}}  {right}"]
            else:
                lines.append(f"  {left:{width}}  {right}")
        blocks.append("\n".join(line.rstrip() for line in lines))
    return "\n\n".join(blocks)


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
            print(help_text(commands, None))
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
                print(help_text(commands, command))
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
