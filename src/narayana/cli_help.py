"""The --help text, written from the parser's table; only --help imports it."""

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
