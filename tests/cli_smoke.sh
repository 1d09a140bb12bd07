#!/usr/bin/env bash
# The installed-package checks: the xstring console script on small
# inputs, through files, pipes and both escape modes.  It writes its
# scratch files to the current directory.
#
#   bash tests/cli_smoke.sh
set -eo pipefail
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
# stats with the whitespace between elements dropped and kept
printf '<r>\n  <a x="1"/>\n  <b>t</b>\n</r>\n' > ws.xml
xstring stats < ws.xml > drop.kv
grep -x 'xml_chars=25' drop.kv
grep -x 'xs_chars=12' drop.kv
xstring stats --keep-whitespace < ws.xml > keep.kv
grep -x 'xml_chars=32' keep.kv
grep -x 'xs_chars=26' keep.kv
# the packed form: keyed at threshold 2, packed, unpacked and
# expanded back to the encoded stream; rep.xml repeats its names,
# so its stream holds keys
printf '<list><item id="1"/><item id="2"/></list>' > rep.xml
for xml in ws.xml rep.xml; do
  xstring encode < "$xml" > enc.xs
  xstring subst --threshold 2 < enc.xs > keyed.xs
  xstring pack -o k.xsb < keyed.xs
  xstring unpack k.xsb | xstring expand | cmp - enc.xs
done
grep -q '#0' keyed.xs
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
# a payload cut off after its pair byte: exit 1, one labelled line
status=0
printf 'XSB1\001\016' | xstring unpack 2> err.txt || status=$?
test "$status" = 1
test "$(wc -l < err.txt)" = 1
grep -q '^pack: ' err.txt
