"""Bidirectional codec between XML and a compact prefix-character string form.

The string form replaces markup with twelve one-character prefixes and
drops closing tags entirely; see the grammar module for the character set
and the codec module for how implicit closure works.  On top of the codec
sit a binary packing, name substitution, folding of documents into host
attributes, and size accounting.
"""

from .errors import XStringError
from .xml_model import (Attribute, NodeKind, Violation, WellFormednessError,
                        WellFormednessReport, XmlDocument, XmlNode,
                        XmlSyntaxError, check_well_formed, parse_xml,
                        serialize_xml, structural_equal)
from .grammar import (BadDepth, BadKey, DanglingEscape, EmptyName, EscapeMode,
                      MalformedEntity, PREFIX_CHARS, PrefixKind, StrayData,
                      TokenizeError, UnterminatedDual, XsDocument, XsToken,
                      escape_data, render, tokenize, unescape_data)
from .codec import (AttrAfterContent, BadStreamStart, BadToken, BudgetConflict,
                    BudgetOverrun, ContentAfterRoot, DanglingAttr, DecodeError,
                    DecodeState, DuplicateAttr, EmptyStream, EncodeMode,
                    EncodeOptions, Unencodable, UnknownKey, decode,
                    descendant_count, encode)
from .transforms import (NumericNameClash, SubstitutionTable,
                         build_substitution, expand_substitution,
                         to_child_depth)
from .binary import (BadMagic, BadNibble, BadPayload, BadVersion,
                     MalformedVarint, PackError, StrayMarker, TrailingBytes,
                     Truncated, pack, pack_envelope, unpack, unpack_envelope)
from .folding import (FoldError, FoldMode, IndexOutOfRange, LengthMismatch,
                      MixedSlot, MultipleSlots, NoSlot, escape_fold_attr,
                      fold, unescape_fold_attr, unfold)
from .metrics import (AsymptoteProbe, ConstructKind, ConstructStat, Mismatch,
                      SizeReport, asymptote_check, measure, predict_size)

__version__ = "0.1.0"

__all__ = [
    "XStringError",
    # xml model
    "Attribute", "NodeKind", "Violation", "WellFormednessError",
    "WellFormednessReport", "XmlDocument", "XmlNode", "XmlSyntaxError",
    "check_well_formed", "parse_xml", "serialize_xml", "structural_equal",
    # token grammar
    "BadDepth", "BadKey", "DanglingEscape", "EmptyName", "EscapeMode",
    "MalformedEntity", "PREFIX_CHARS", "PrefixKind", "StrayData",
    "TokenizeError", "UnterminatedDual", "XsDocument", "XsToken",
    "escape_data", "render", "tokenize", "unescape_data",
    # codec
    "AttrAfterContent", "BadStreamStart", "BadToken", "BudgetConflict",
    "BudgetOverrun", "ContentAfterRoot", "DanglingAttr", "DecodeError",
    "DecodeState", "DuplicateAttr", "EmptyStream", "EncodeMode",
    "EncodeOptions", "Unencodable", "UnknownKey", "decode",
    "descendant_count", "encode",
    # transforms
    "NumericNameClash", "SubstitutionTable", "build_substitution",
    "expand_substitution", "to_child_depth",
    # binary
    "BadMagic", "BadNibble", "BadPayload", "BadVersion", "MalformedVarint",
    "PackError", "StrayMarker", "TrailingBytes", "Truncated", "pack",
    "pack_envelope", "unpack", "unpack_envelope",
    # folding
    "FoldError", "FoldMode", "IndexOutOfRange", "LengthMismatch", "MixedSlot",
    "MultipleSlots", "NoSlot", "escape_fold_attr", "fold",
    "unescape_fold_attr", "unfold",
    # metrics
    "AsymptoteProbe", "ConstructKind", "ConstructStat", "Mismatch",
    "SizeReport", "asymptote_check", "measure", "predict_size",
]
