"""The model file, version 6. Only `_write_model` and `_read_model` know
its layout. Integers are little-endian u32 unless marked; a column is
`_column`'s, texts are `_texts`'. The sections, as `sections` names them:

    header        b"MBT1", u16 version
    interner      every symbol (feature value) text in id order after the
                  two markers, which every interner has, as texts
    config        f64 threshold, u8 route numbers to unknown, fallback
                  tag, u8 has closed classes (0 or 1); if 1, the sorted
                  closed-class tags as texts
    lexicon       the words as texts, then columns: per word its tag
                  count; every word's tag ids; the counts of those tags
    weights       known then unknown: arity (4, then 6) f64 gains
    known_tree,   each: u8 present (0 or 1); if present, case count, the
    unknown_tree  count of its preorder ints, then those ints
                  (`_node_ints`) as a column
    trailer       CRC-32 (`zlib.crc32`) of every byte before it

A word's surviving tags and lexicon tag are not stored: they follow from
its tag counts and the threshold (`taggen._lexicon_tag`). Nor is a tree's
feature order: it is `feature_order` of its gains, as in `build`, and a
tree in another order is refused with StructureError, as are gains whose
count is not their base's arity.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Sequence

from . import taggen  # which imports this module: use its names in calls
from .corpus import collector_paused
from .errors import ModelFormatError, StructureError
from .igtree import IGTree, IGTreeNode, feature_order
from .interning import Interner
from .metrics import FeatureWeights

MAGIC = b"MBT1"
FORMAT_VERSION = 6
SECTIONS = ("header", "interner", "config", "lexicon", "weights",
            "known_tree", "unknown_tree", "trailer")

_U32 = struct.Struct("<I")
_COLUMN_TYPES = {1: "B", 2: "H", 4: "I"}  # array typecode per width
_SWAP = sys.byteorder == "big"  # columns are little-endian in the file
# threshold, route numerals to unknown, fallback tag, has closed classes
_CONFIG = struct.Struct("<dBIB")


def _column(values: Sequence[int]) -> bytes:
    """Element width (1, 2 or 4 bytes, the smallest that holds the largest
    value), then the values little-endian. The count is not stored: the
    reader knows it."""
    top = max(values, default=0)
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    col = array(_COLUMN_TYPES[width], values)
    if _SWAP:
        col.byteswap()
    return bytes((width,)) + col.tobytes()


def _texts(texts: Sequence[str]) -> bytes:
    """The UTF-8 byte count, then the texts, each ended by "\n". A text
    that contains "\n" is refused with StructureError: no corpus word, tag
    or letter holds one, since corpus and tag input split lines at it."""
    joined = "\n".join([*texts, ""])
    if joined.count("\n") != len(texts):
        bad = next(t for t in texts if "\n" in t)
        raise StructureError(f"text {bad!r} contains a newline")
    blob = joined.encode("utf-8")
    return _U32.pack(len(blob)) + blob


def _node_ints(node: IGTreeNode, ints: list[int]) -> None:
    """Preorder: default, arc count, then per arc its value and subtree."""
    ints += (node.default, len(node.arcs))
    for value, child in node.arcs.items():
        ints.append(value)
        _node_ints(child, ints)


def _write_model(model: taggen.TaggerModel) -> bytes:
    """The model file of `model`, in the layout above."""
    interner, config = model.interner, model.config
    closed = config.closed_class_tags
    out = bytearray(MAGIC)
    out += struct.pack("<H", FORMAT_VERSION)
    out += _texts(list(interner)[2:])
    out += _CONFIG.pack(config.threshold, config.route_numbers_to_unknown,
                        model.fallback_tag, closed is not None)
    if closed is not None:
        out += _texts(sorted(closed))
    lexicon = model.lexicon
    out += _texts(list(lexicon.tags))
    out += _column(lexicon.n_tags)
    out += _column(lexicon.tag_ids)
    out += _column(lexicon.counts)
    bases = (("known", taggen.KNOWN_ARITY, model.known_weights,
              model.known_tree),
             ("unknown", taggen.UNKNOWN_ARITY, model.unknown_weights,
              model.unknown_tree))
    for base, arity, weights, _ in bases:
        if len(weights) != arity:
            raise StructureError(f"{base} gains: {len(weights)} values for "
                                 f"arity {arity}")
        out += struct.pack(f"<{arity}d", *weights)
    for _, _, weights, tree in bases:
        if tree is None:
            out.append(0)
            continue
        if tree.feature_order != feature_order(weights):
            raise StructureError(f"tree feature order {tree.feature_order} "
                                 "is not the order of its gains")
        out.append(1)
        ints: list[int] = []
        _node_ints(tree.root, ints)
        out += struct.pack("<2I", tree.case_count, len(ints))
        out += _column(ints)
    out += _U32.pack(zlib.crc32(out))
    return bytes(out)


def _flag(byte: int) -> bool:
    if byte > 1:
        raise ModelFormatError(f"flag byte {byte} is neither 0 nor 1")
    return byte == 1


def _read_column(buf: bytes, off: int, n: int) -> tuple[array, int]:
    """Inverse of `_column`, for a column of `n` values; a width wider than
    the values need is rejected, so that a column has one encoding."""
    width = buf[off]
    typecode = _COLUMN_TYPES.get(width)
    if typecode is None:
        raise ModelFormatError(f"column width {width} is not 1, 2 or 4")
    start = off + 1
    off = start + width * n
    if off > len(buf):
        raise ModelFormatError("truncated column")
    col = array(typecode)
    col.frombytes(buf[start:off])
    if _SWAP:
        col.byteswap()
    # width 2 is needed from 2**8 on, width 4 from 2**16 on
    if width > 1 and max(col, default=0) < 1 << 4 * width:
        raise ModelFormatError(
            f"column width {width} is wider than its values")
    return col, off


def _read_texts(buf: bytes, off: int) -> tuple[list[str], int]:
    """Inverse of `_texts`: the texts are split at "\n" only."""
    (size,) = _U32.unpack_from(buf, off)
    start = off + 4
    off = start + size
    if off > len(buf):
        raise ModelFormatError("truncated text list")
    if size == 0:
        return [], off
    if buf[off - 1] != ord("\n"):
        raise ModelFormatError("text list does not end with a newline")
    return buf[start:off - 1].decode("utf-8").split("\n"), off


def _read_lexicon(buf: bytes, off: int, interner: Interner,
                  threshold: float) -> tuple[taggen.Lexicon, int]:
    """The lexicon's words and three columns, checked in full; each lexicon
    tag is recomputed as `build_lexicon` computes it, interning nothing."""
    words, off = _read_texts(buf, off)
    n_tags, off = _read_column(buf, off, len(words))
    tag_ids, off = _read_column(buf, off, sum(n_tags))
    counts, off = _read_column(buf, off, len(tag_ids))
    if max(tag_ids, default=0) >= len(interner):
        raise ModelFormatError("lexicon tag id is not a symbol")
    if min(tag_ids, default=2) < 2:  # ids 0 and 1 are the two markers
        raise ModelFormatError("lexicon tag id is a marker")
    if 0 in n_tags or 0 in counts:
        raise ModelFormatError("lexicon count of zero")
    return taggen._lexicon_from_columns(
        words, n_tags.tolist(), tag_ids.tolist(), counts.tolist(), interner,
        interner.id_of, threshold), off


def _read_node(ints: list[int], i: int, depth_left: int, n_symbols: int
               ) -> tuple[IGTreeNode, int]:
    """The node whose ints start at `ints[i]`, its subtree, and the index
    after them, checked so that tagging cannot fail on it: every default
    and arc value is a symbol, and no arc hangs below the last feature
    (which also bounds the recursion)."""
    default, n_arcs = ints[i], ints[i + 1]
    i += 2
    if default >= n_symbols:
        raise ModelFormatError(f"tree default {default} is not a symbol")
    if n_arcs and depth_left == 0:
        raise ModelFormatError("tree arcs below the last feature")
    arcs: dict[int, IGTreeNode] = {}
    for _ in range(n_arcs):
        value = ints[i]
        if value >= n_symbols:
            raise ModelFormatError(f"tree arc value {value} is not a symbol")
        arcs[value], i = _read_node(ints, i + 1, depth_left - 1, n_symbols)
    if len(arcs) != n_arcs:
        raise ModelFormatError("repeated tree arc value")
    return IGTreeNode(default, arcs), i


def _read_tree(buf: bytes, off: int, weights: FeatureWeights, n_symbols: int
               ) -> tuple[IGTree | None, int]:
    """A tree that tests its features in the order of its gains, `weights`,
    holds a case (`build` refuses an empty base) and uses all its ints."""
    if not _flag(buf[off]):
        return None, off + 1
    case_count, n_ints = struct.unpack_from("<2I", buf, off + 1)
    if case_count == 0:
        raise ModelFormatError("tree with no cases")
    ints, off = _read_column(buf, off + 9, n_ints)
    order = feature_order(weights)
    # ints that end inside a node raise IndexError: see `_read_model`
    root, end = _read_node(ints.tolist(), 0, len(order), n_symbols)
    if end != n_ints:
        raise ModelFormatError(f"{n_ints - end} tree values left over")
    return IGTree(root, order, case_count), off


def sections(buf: bytes) -> list[tuple[str, int, int]]:
    """(name, start, stop) of each section of the file image `buf`, in the
    order of SECTIONS, tiling `[0, len(buf))`. Reads and checks the whole
    file, so it raises what `TaggerModel.from_bytes` raises."""
    return _read_model(buf)[1]


@collector_paused
def _read_model(buf: bytes
                ) -> tuple[taggen.TaggerModel, list[tuple[str, int, int]]]:
    """Inverse of `_write_model`, and the section map, recorded as it reads.
    Checks, in order: the magic bytes, the version, the CRC, then the body.
    Any buffer that is not a model file raises ModelFormatError; so does
    any symbol id the interner lacks."""
    if buf[:4] != MAGIC:
        raise ModelFormatError("bad magic bytes: not a tagger model file")
    if len(buf) < 6:
        raise ModelFormatError("truncated model header")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model version {version} is not supported (this memtag reads "
            f"version {FORMAT_VERSION}); retrain the model")
    body = buf[:-4]
    if (len(buf) < 10
            or zlib.crc32(body) != _U32.unpack_from(buf, len(body))[0]):
        raise ModelFormatError("CRC mismatch: the model file is corrupt "
                               "or truncated")
    ends = [6]  # where each section ends, the header's first
    try:
        texts, off = _read_texts(body, 6)
        ends.append(off)
        interner = Interner(texts)
        n_symbols = len(interner)
        threshold, route_numbers, fallback, has_closed = (
            _CONFIG.unpack_from(body, off))
        off += _CONFIG.size
        if fallback >= n_symbols:
            raise ModelFormatError(f"fallback tag {fallback} is not a symbol")
        closed = None
        if _flag(has_closed):
            tags, off = _read_texts(body, off)
            if tags != sorted(set(tags)):
                raise ModelFormatError(
                    "closed-class tags are not sorted and distinct")
            closed = frozenset(tags)
        ends.append(off)
        config = taggen.TaggerConfig(threshold, closed, _flag(route_numbers))
        lexicon, off = _read_lexicon(body, off, interner, threshold)
        ends.append(off)
        weights = []
        for arity in (taggen.KNOWN_ARITY, taggen.UNKNOWN_ARITY):
            weights.append(struct.unpack_from(f"<{arity}d", body, off))
            off += 8 * arity
        ends.append(off)
        known_tree, off = _read_tree(body, off, weights[0], n_symbols)
        ends.append(off)
        unknown_tree, off = _read_tree(body, off, weights[1], n_symbols)
    except ModelFormatError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        # ValueError covers bad UTF-8, a repeated interner text and
        # TaggerConfig's threshold check (a ParameterError)
        raise ModelFormatError(f"corrupt model file: {exc}") from exc
    if off != len(body):
        raise ModelFormatError(f"{len(body) - off} trailing bytes")
    ends += (off, len(buf))
    model = taggen.TaggerModel(interner, lexicon, config, weights[0],
                               weights[1], known_tree, unknown_tree, fallback)
    return model, list(zip(SECTIONS, [0, *ends], ends))
