#!/bin/sh
# Compiler-checked dead-export pass over lib/.
#
#   sh scripts/dead_exports.sh [--all]      (make dead-exports)
#
# Works on a scratch copy of the working tree (tracked and untracked,
# ignored files left out), so the checkout is never edited; needs no
# network.  The copy builds mp5bench/ as part of the repository's
# project (its own dune-project removed and its profile gate lifted),
# so the frozen benchmark driver's calls count as uses.
#
# Candidates: each `val` of a lib/ interface that no source file under
# lib bin bench examples mp5bench other than the module's own names, by
# a text scan of qualified references (below); --all takes every `val`.
# For each candidate the script deletes the declaration from the .mli
# and type-checks lib bin bench examples mp5bench (not test) with
# warnings non-fatal:
#
#   type error      something outside the module reaches it: fine
#   warning 32      only tests reach it, or nothing: reported "tests"
#   clean build     only its own module uses it: reported "internal"
#
# Every reported export must be listed in scripts/dead_exports.keep
# with a reason, and every value listed there must still be reported
# (a stale entry fails too).  Exit 0 when both hold, 1 otherwise.
set -eu

all=false
case "${1:-}" in
  --all) all=true ;;
  '') ;;
  *) echo "usage: $0 [--all]" >&2; exit 2 ;;
esac

repo=$(git rev-parse --show-toplevel)
keep="$repo/scripts/dead_exports.keep"
[ -f "$keep" ] || { echo "dead-exports: $keep missing" >&2; exit 2; }
work=$(mktemp -d "${TMPDIR:-/tmp}/dead_exports.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

(cd "$repo" && git ls-files -co --exclude-standard -z | tar --null -T - -cf -) \
  | (cd "$work" && tar xf -)
rm -f "$work/mp5bench/dune-project"
sed -i '/enabled_if/d' "$work/mp5bench/dune"

export DUNE_CACHE=disabled OCAMLPARAM='_,warn-error=-a'
check() {
  (cd "$work" && dune build @lib/check @bin/check @bench/check @examples/check \
    @mp5bench/check) > "$work/.out" 2>&1 || true
}

check
if grep -q '^Error' "$work/.out"; then
  cat "$work/.out" >&2
  echo "dead-exports: the unmodified copy does not build" >&2
  exit 1
fi
grep -o 'unused value [A-Za-z0-9_]*' "$work/.out" | sort -u > "$work/.base" || true

# One line per val: file, line, Module[.Sub].name, bare name, module.
(cd "$work" && find lib -name '*.mli' | sort | while read -r mli; do
  awk -v f="$mli" '
    BEGIN {
      n = split(f, parts, "/"); m = parts[n]; sub(/\.mli$/, "", m)
      m = toupper(substr(m, 1, 1)) substr(m, 2); sub_ = ""
    }
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { sub_ = $2 "."; next }
    /^end *$/ { sub_ = ""; next }
    match($0, /^ *val [a-z_][A-Za-z0-9_'\'']*/) {
      v = substr($0, RSTART, RLENGTH); sub(/^ *val /, "", v)
      print f, NR, m "." sub_ v, v, m
    }' "$mli"
done) > "$work/.vals"

# Uses by text, one "file module value" line per reference outside
# test/, comments left out: a qualified [M.v] or [M.Sub.v] (the first
# module of the path after any library prefix, through [module X = ...]
# aliases), or any word [v] of a file that opens [M] ([open M],
# [M.(...)], [let open M in], [include M]).  A val with no such line
# outside its own module's files goes to the compiler.  Modules are
# matched by name, so a use of another library's module of the same
# name hides a val here; --all does not narrow.
(cd "$work" && find lib bin bench examples mp5bench -name '*.ml' -o -name '*.mli' | sort) \
  > "$work/.files"
(cd "$work" && awk '
  # the text of a line outside comments, which nest and span lines
  function code(text,   out, c, two) {
    out = ""
    for (c = 1; c <= length(text); c++) {
      two = substr(text, c, 2)
      if (two == "(*") { depth++; c++ }
      else if (two == "*)" && depth > 0) { depth--; c++ }
      else if (depth == 0) out = out substr(text, c, 1)
    }
    return out
  }
  # the top module a path names: its first component after Mp5_ library
  # prefixes, resolved through the aliases of this file; "" for none
  function top(path,   np, part, t) {
    np = split(path, part, ".")
    t = 1
    while (t <= np && part[t] ~ /^Mp5_/) t++
    if (t > np) return ""
    return ((FILENAME, part[t]) in alias) ? alias[FILENAME, part[t]] : part[t]
  }
  FNR == 1 { pass[FILENAME]++; depth = 0 }
  { line = code($0) }
  pass[FILENAME] == 1 {
    if (match(line, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*/)) {
      s = substr(line, RSTART + 7, RLENGTH - 7); split(s, def, " = ")
      target = top(def[2])  # before the assignment creates the entry
      alias[FILENAME, def[1]] = target
    }
    while (match(line, /(open!? |include |let open )[A-Z][A-Za-z0-9_.]*|[A-Z][A-Za-z0-9_.]*\.\(/)) {
      s = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
      sub(/^(open!? |include |let open )/, "", s); sub(/\.\($/, "", s)
      if (top(s) != "") opened[FILENAME] = opened[FILENAME] " " top(s)
    }
    next
  }
  {
    rest = line
    while (match(rest, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_'\'']*/)) {
      s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
      v = s; sub(/^.*\./, "", v); sub(/\.[^.]*$/, "", s)
      if (top(s) != "") print FILENAME, top(s), v
    }
    if (opened[FILENAME] != "") {
      m = split(opened[FILENAME], b, " "); rest = line
      while (match(rest, /[a-z_][A-Za-z0-9_]*/)) {
        v = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        for (j = 1; j <= m; j++) print FILENAME, b[j], v
      }
    }
  }' $(cat .files) $(cat .files)) | sort -u > "$work/.uses"
# The candidates: every val with --all, else those no other file uses.
awk -v all="$all" '
  FILENAME != "-" {
    n = split($1, a, "/"); f = a[n]; sub(/\.mli?$/, "", f)
    users[$2, $3] = users[$2, $3] " " f; next
  }
  {
    n = split($1, a, "/"); own = a[n]; sub(/\.mli$/, "", own)
    m = split(users[$5, $4], u, " "); ext = 0
    for (i = 1; i <= m; i++) if (u[i] != own) ext = 1
    if (all == "true" || !ext) print
  }' "$work/.uses" - < "$work/.vals" > "$work/.cands"

# Delete the val at line $2 of $1 and the lines indented deeper below it.
drop_val() {
  awk -v at="$2" '
    NR == at { match($0, /^ */); ind = RLENGTH; skip = 1; next }
    skip && $0 ~ /[^ ]/ { match($0, /^ */); if (RLENGTH > ind) next; skip = 0 }
    skip && $0 !~ /[^ ]/ { skip = 0 }
    { print }' "$1" > "$1.tmp" && mv "$1.tmp" "$1"
}

: > "$work/.report"
checked=0
while read -r mli line qual name _; do
  checked=$((checked + 1))
  cp "$work/$mli" "$work/.saved"
  drop_val "$work/$mli" "$line"
  check
  cp "$work/.saved" "$work/$mli"
  if grep -q '^Error' "$work/.out"; then continue; fi
  if grep -q "unused value $name\.\$" "$work/.out" \
     && ! grep -qx "unused value $name" "$work/.base"; then
    echo "$qual tests $mli:$line" >> "$work/.report"
  else
    echo "$qual internal $mli:$line" >> "$work/.report"
  fi
done < "$work/.cands"

status=0
while read -r qual how where; do
  reason=$(awk -v q="$qual" '$1 == q { $1 = ""; sub(/^ +/, ""); print; exit }' "$keep")
  case "$how" in
    tests) what="only tests reach it, or nothing" ;;
    *) what="only its own module uses it" ;;
  esac
  if [ -n "$reason" ]; then
    echo "kept    $qual ($where): $what; $reason"
  else
    echo "REPORT  $qual ($where): $what" >&2
    status=1
  fi
done < "$work/.report"

# Keep entries that name a val must still be reported.
for qual in $(awk '!/^#/ && NF { print $1 }' "$keep"); do
  if awk -v q="$qual" '$3 == q { found = 1 } END { exit !found }' "$work/.vals" \
     && ! awk -v q="$qual" '$1 == q { found = 1 } END { exit !found }' "$work/.report"; then
    echo "STALE   $qual: kept in $(basename "$keep") but no longer reported" >&2
    status=1
  fi
done

echo "dead-exports: $(wc -l < "$work/.vals") vals, $checked checked by the compiler," \
  "$(wc -l < "$work/.report") reported"
exit $status
