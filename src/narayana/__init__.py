"""Exact-arithmetic toolkit for Dyck path statistics, q-Narayana numbers,
flag h-vectors of ideal lattices and shellability of their order complexes."""

__version__ = "0.1.0"

# the largest n of the closed-form q-Narayana routes and of the enumerative
# ones; dist shares the enumerative limit
CLOSED_FORM_LIMIT = 60
ENUMERATION_LIMIT = 12
# q-Narayana route -> (module, function, largest n) of the routine that
# computes it, which the qnarayana command and the q-identity check read;
# key order is the order --help lists the routes in
ROUTES = {
    "closed": ("qpoly", "q_narayana_closed", CLOSED_FORM_LIMIT),
    "schur-ssyt": ("tableaux", "q_narayana_ssyt", ENUMERATION_LIMIT),
    "schur-hook": ("qpoly", "q_narayana_hook", CLOSED_FORM_LIMIT),
    "enumerate": ("stats", "q_narayana_enumerate", ENUMERATION_LIMIT),
}
# path statistic -> its major-index co-statistic, or None, which dist --stat
# and --q, the transfer matrices and the q-identity check read; key order is
# the order --help lists the statistics in
STATISTICS = {"des": "maj", "hp": "maj_w", "ea": None, "lnfs": "maj_l", "da": None}


def _library(module: str, function: str):
    """The named function of a package module, imported on first use."""
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), function)
