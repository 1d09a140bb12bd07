#!/usr/bin/env bash
# The installed-package checks: the xstring console script on small
# inputs, through files, pipes and both escape modes.  It writes its
# scratch files to a temporary directory and removes it on exit.
#
#   bash tests/cli_smoke.sh
set -eo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
out=$(printf '<r><a x="1"/>t</r>' | xstring encode | xstring decode)
test "$out" = '<r><a x="1"/>t</r>'
# a file argument and stdin read the same UTF-8 bytes, CR and CRLF
# included, also when the locale gives stdin and stdout another codec
printf "/r'a\rb\r\nc \303\251" > cr.xs
printf '<r>a\rb\r\nc \303\251</r>\n' > cr.xml
xstring decode cr.xs | cmp - cr.xml
xstring decode < cr.xs | cmp - cr.xml
PYTHONIOENCODING=latin-1 xstring decode cr.xs | cmp - cr.xml
PYTHONIOENCODING=latin-1 xstring decode < cr.xs | cmp - cr.xml
# an instruction target of digits is data, not a key reference: it is
# written back as it was read, also through the packed form
test "$(printf '/r?0' | xstring canon)" = '/r+1?0'
test "$(printf '/r?0' | xstring pack | xstring unpack | xstring canon)" = '/r+1?0'
# stats with the whitespace between elements dropped and kept
printf '<r>\n  <a x="1"/>\n  <b>t</b>\n</r>\n' > ws.xml
xstring stats < ws.xml > drop.kv
grep -x 'xml_chars=25' drop.kv
grep -x 'xs_chars=12' drop.kv
xstring stats --keep-whitespace < ws.xml > keep.kv
grep -x 'xml_chars=32' keep.kv
grep -x 'xs_chars=26' keep.kv
# data that holds references: entity mode writes its '/', '#' and '|'
# as references, and the references already there, a padded one and
# one behind '&' among them, come back byte for byte
printf '<r a="x/&#47;y">&#47;/&#047;#&amp;#35;47;|</r>\n' > refs.xml
xstring encode < refs.xml | xstring decode | cmp - refs.xml
# the packed form: keyed at threshold 2, packed, unpacked and
# expanded back to the encoded stream; rep.xml repeats its names,
# so its stream holds keys
printf '<list><item id="1"/><item id="2"/></list>\n' > rep.xml
for xml in refs.xml ws.xml rep.xml; do
  xstring encode < "$xml" > enc.xs
  xstring subst --threshold 2 < enc.xs > keyed.xs
  xstring pack -o k.xsb < keyed.xs
  xstring unpack k.xsb | xstring expand | cmp - enc.xs
done
grep -q '#0' keyed.xs
# unkeyed, the repeated names item and id are packed by index: unit
# codes 0xC and 0xD, with table indexes 1 and 2.  The header says that
# the names and the attribute values, string containers 0 and 2, are
# there, and none is deflated; then come the lengths of the six units
# and of the two containers, and the bodies
xstring encode < rep.xml > rep.xs
xstring pack -o rep.xsb < rep.xs
printf 'XSB1\003\005\000\006\014\003\000\170\315\001\002\216list\000item\000id1\0002' |
  cmp - rep.xsb
xstring unpack rep.xsb | cmp - rep.xs
# a 2 000-row table round-trips through the packed form, which is
# smaller than the XML compressed by zlib at level 9
python3 - > table.xml <<'PY'
rows = "".join(f'<ROW ID="{i}"><NAME>Name {i}</NAME><TOWN>Town/{i % 97}'
               f"</TOWN><QTY>{i * 7 % 9999}</QTY></ROW>" for i in range(2000))
print(f"<TABLE>{rows}</TABLE>")
PY
xstring encode < table.xml | xstring pack > table.xsb
xstring unpack table.xsb | xstring decode | cmp - table.xml
zlib_size=$(python3 -c 'import sys, zlib
print(len(zlib.compress(sys.stdin.buffer.read(), 9)))' < table.xml)
test "$(wc -c < table.xsb)" -lt "$zlib_size"
# names that repeat past index 127, after 128 other distinct names: the
# two-byte index of "x" is no shorter than "x" and its NUL, so x is
# written as a string again, and the long name goes by index
python3 - > names.xml <<'PY'
others = "".join(f"<n{i}/>" for i in range(1, 128))
print(f"<r>{others}<x/><a_long_element_name/><x/><a_long_element_name/></r>")
PY
xstring encode < names.xml | xstring pack | xstring unpack | xstring decode |
  cmp - names.xml
# the canonical form read back, in both escape modes: each element's
# depth marker comes right after its name, or after an attribute list
# or padding
for xml in refs.xml rep.xml; do
  for escape in entity sentinel; do
    xstring encode --mode canonical --escape "$escape" < "$xml" |
      xstring decode | cmp - "$xml"
  done
done
test "$(printf "/r@a=v+2'x/b" | xstring decode)" = '<r a="v">x<b/></r>'
test "$(printf "/r +2'x/b" | xstring decode)" = '<r>x<b/></r>'
# sibling streams the decoder must close exactly as the encoder
# predicts: a depth marker closes the finished elements above the
# parent, a sibling token closes back to the nearest open element with
# its name, and an element whose earlier sibling a marker closed is
# written as a child; each stream decodes back byte for byte
printf '<b><b><b><?p?><a/></b>t<a/></b><b/></b>\n' > close.xml
printf '<d><d><p/>t</d><d/></d>\n' > back.xml
printf '<p>one <b>x</b> two<b>y</b></p>\n' > prose.xml
test "$(xstring encode < close.xml)" = "/b/b/b+2?p/a't/a|b"
test "$(xstring encode < back.xml)" = "/d/d/p+0't|d"
test "$(xstring encode < prose.xml)" = "/p'one /b+1'x' two/b'y"
for xml in close.xml back.xml prose.xml; do
  xstring encode < "$xml" | xstring decode | cmp - "$xml"
done
xstring encode --escape sentinel < close.xml > close.xs
printf "\000/b\000/b\000/b\000+2\000?p\000/a\000't\000/a\000|b" |
  cmp - close.xs
xstring decode close.xs | cmp - close.xml
# the same in sentinel mode: only the writers are told the mode,
# the readers take it from the stream
xstring encode --escape sentinel < rep.xml > sen.xs
xstring subst --threshold 2 < sen.xs > sen-keyed.xs
xstring pack -o sen.xsb < sen-keyed.xs
xstring unpack --escape sentinel sen.xsb | xstring expand | cmp - sen.xs
xstring encode < rep.xml | xstring decode > ent.xml
xstring decode sen.xs | cmp - ent.xml
status=0
xstring decode --escape sentinel sen.xs 2> /dev/null || status=$?
test "$status" = 2
# a payload cut off before its string container: exit 1, one labelled
# line
status=0
printf 'XSB1\003\001\000\001\001\016' | xstring unpack 2> err.txt || status=$?
test "$status" = 1
test "$(wc -l < err.txt)" = 1
grep -q '^pack: ' err.txt
# a multi fold into a slot whose COUNT claims layers it does not hold
printf '<h><XSTRING COUNT="2"/></h>' > held.xml
printf '<h><XSTRING COUNT="0"/></h>' > fresh.xml
printf '<r/>' > inner.xml
status=0
xstring fold --fold-mode multi --host held.xml inner.xml 2> err.txt || status=$?
test "$status" = 1
test "$(wc -l < err.txt)" = 1
grep -q '^fold: ' err.txt
test "$(xstring fold --fold-mode multi --host fresh.xml inner.xml)" = \
  '<h><XSTRING COUNT="1" LENGTH_0="2" TEXT_0="/r"/></h>'
# check, the parser's collecting mode: ok on a well-formed document; a
# violation is reported on stdout, exit 1, with nothing on stderr
test "$(printf '<a/>' | xstring check)" = ok
status=0
printf '<a><b></a>' | xstring check > report.txt 2> err.txt || status=$?
test "$status" = 1
test "$(cat report.txt)" = 'rule 4 at offset 6: close tag </a> overlaps <b>'
test ! -s err.txt
# a UTF-8 byte order mark before the XML is not content: encode and
# check read past it, also before the declaration, and the round trip
# gives the document without it
printf '\357\273\277<?xml version="1.0"?><r>a</r>\n' > bom.xml
printf '<?xml version="1.0"?><r>a</r>\n' > nobom.xml
test "$(xstring check bom.xml)" = ok
xstring encode bom.xml > bom.xs
xstring encode nobom.xml | cmp - bom.xs
xstring decode bom.xs | cmp - nobom.xml
# the parser's one scan: check lists every violation, and encode fails
# on the first of them with one labelled line
printf '<a x=1><b></a>' > bad.xml
status=0
xstring check < bad.xml > report.txt || status=$?
test "$status" = 1
printf 'rule 6 at offset 5: attribute value must be quoted\nrule 4 at offset 10: close tag </a> overlaps <b>\n' | cmp - report.txt
status=0
xstring encode < bad.xml > enc.xs 2> err.txt || status=$?
test "$status" = 1
test "$(cat err.txt)" = 'wellformedness: rule 6 at offset 5: attribute value must be quoted'
test "$(wc -l < err.txt)" = 1
# NUL in text or in an attribute value cannot be written, in either
# form: exit 1, one labelled line
for xml in '<r>a\000b</r>' '<r x="a\000b"/>'; do
  for mode in sibling canonical; do
    status=0
    printf "$xml" | xstring encode --mode "$mode" > enc.xs 2> err.txt ||
      status=$?
    test "$status" = 1
    test "$(cat err.txt)" = 'encode: NUL in character data cannot be written'
    test "$(wc -l < err.txt)" = 1
  done
done
# the decoder's depth errors, the packed form's held stray marker and
# its refusal of format versions 1 and 2, and a stream that opens with a byte
# order mark: exit 1, one labelled line; a byte-level error after the
# stray marker wins over it
while IFS=';' read -r cmd input message; do
  status=0
  printf "$input" | xstring "$cmd" > out.txt 2> err.txt || status=$?
  test "$status" = 1
  test "$(wc -l < err.txt)" = 1
  test "$(cat err.txt)" = "$message"
done <<'CASES'
decode;/a/b+2|c;decode: sibling <c> would close <b> with 2 nodes of its depth unfilled
decode;/r/a/b+3|a;decode: sibling <a> closure crosses <b> with 3 nodes of its depth unfilled
decode;/a+1/b+5't;decode: <b> still expects 5 nodes when an enclosing depth ran out
unpack;XSB1\003\000\000\002\236\001;pack: depth without an element to attach to
unpack;XSB1\003\000\000\003\236\001\000;pack: data continues after the pad code
unpack;XSB1\001\016\001X;pack: unsupported format version 1
unpack;XSB1\002;pack: unsupported format version 2
decode;\357\273\277/r;tokenize: data outside any token at offset 0
CASES
