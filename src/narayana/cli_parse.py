"""The general command-line reader and the --help text, both from the
parser's table.  parse builds an argparse parser from the table whose
refusals raise UsageError, so that each is one error line with exit 2;
help_text writes the --help of the program and of each command.
narayana.cli reads a full-form command line itself and imports this module
for any other, --help and --version among them."""

import argparse
from types import SimpleNamespace

from . import __version__
from .cli_common import UsageError

HELP = ("-h", "--help")
HELP_COLUMN = 22  # the widest option column that --help keeps on one line


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


class _Parser(argparse.ArgumentParser):
    """argparse, its refusals raised as UsageError, not printed with exit 2."""

    def error(self, message: str):
        raise UsageError(message)


class _Print(argparse.Action):
    """-h, --help or --version: print the text held as const and stop."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(self.const)
        parser.exit()


def _prints(parser: argparse.ArgumentParser, texts: dict) -> None:
    # one action per name, so that a message names the option as given
    for name, text in texts.items():
        parser.add_argument(name, action=_Print, nargs=0, const=text, default=argparse.SUPPRESS)


def parse(commands: dict, argv: list[str]) -> tuple | None:
    """(handler, arguments) of the command that argv asks for, read by
    argparse from the table, the handler as its (module, function); None
    once --help or --version is printed.  A refused argv raises UsageError."""
    top = _Parser(add_help=False)
    _prints(top, {**dict.fromkeys(HELP, help_text(commands, None)),
                  "--version": f"narayana {__version__}"})
    subparsers = top.add_subparsers(metavar="command", required=True)
    for command, (_, handler, options) in commands.items():
        parser = subparsers.add_parser(command, add_help=False)
        parser.set_defaults(handler=handler)
        _prints(parser, dict.fromkeys(HELP, help_text(commands, command)))
        for name, (kind, default, required, _) in options.items():
            if kind is bool:
                spec = {"action": "store_true"}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": kind}
            parser.add_argument(name, default=default, required=required, **spec)
    try:
        values = vars(top.parse_args(argv))
    except SystemExit:  # _Print's, the only exit: error raises UsageError
        return None
    return values.pop("handler"), SimpleNamespace(**values)
