"""Static tables for the compiled kuromoji lattice (``_cviterbi.c``).

``_cviterbi.c`` runs the lattice of ``japanese.py`` for the
no-user-dictionary configuration: the full forward scan (lexicon-trie
dictionary matches + unknown-word grouping), Viterbi relaxation, and
the search-mode decompound backtrace. ``util/native.py`` builds it as
its own unit (``lib("viterbi")``): only the Japanese analyzer calls it.
With a user dictionary the Python lattice of ``japanese.py`` runs; it is
also the semantic reference.

``build_trie`` flattens a ``surface -> [word_id]`` mapping into the
static arrays the C scan walks (per-node sorted child arrays + word-id
lists, binary-searched per character).

Exact equivalence Python-vs-C is asserted by
``tests/test_cviterbi.py`` (reference vectors + randomized fuzz).
"""

from __future__ import annotations

import numpy as np


def build_trie(surfaces: "dict[str, list[int]]"):
    """Flatten ``surface -> [word_id]`` into the C scan's static trie
    arrays: (child_start, child_count, child_char, child_node,
    wids_start, wids_count, wid_list) — children sorted by codepoint
    per node, word ids kept in lexicon order."""
    nodes: list[tuple[dict, list]] = [({}, [])]
    for surf, wids in surfaces.items():
        cur = 0
        for ch in surf:
            cp = ord(ch)
            nxt = nodes[cur][0].get(cp)
            if nxt is None:
                nxt = len(nodes)
                nodes[cur][0][cp] = nxt
                nodes.append(({}, []))
            cur = nxt
        nodes[cur][1].extend(wids)
    child_start, child_count, child_char, child_node = [], [], [], []
    wids_start, wids_count, wid_list = [], [], []
    for children, wl in nodes:
        child_start.append(len(child_char))
        child_count.append(len(children))
        for cp in sorted(children):
            child_char.append(cp)
            child_node.append(children[cp])
        wids_start.append(len(wid_list))
        wids_count.append(len(wl))
        wid_list.extend(wl)
    return (np.array(child_start, dtype=np.int32),
            np.array(child_count, dtype=np.int32),
            np.array(child_char, dtype=np.uint32),
            np.array(child_node, dtype=np.int32),
            np.array(wids_start, dtype=np.int32),
            np.array(wids_count, dtype=np.int32),
            np.array(wid_list, dtype=np.int32))


_PUNCT_TABLE: "np.ndarray | None" = None


def punct_table() -> np.ndarray:
    """uint8[65536] BMP punctuation flags (same JDK category set as
    japanese._is_punct), built once per process."""
    global _PUNCT_TABLE
    if _PUNCT_TABLE is None:
        import unicodedata
        cats = frozenset([
            "Zs", "Zl", "Zp", "Cc", "Cf", "Pd", "Ps", "Pe", "Pc", "Po",
            "Sm", "Sc", "Sk", "So", "Pi", "Pf",
        ])
        _PUNCT_TABLE = np.fromiter(
            (unicodedata.category(chr(i)) in cats for i in range(0x10000)),
            dtype=np.uint8, count=0x10000)
    return _PUNCT_TABLE
