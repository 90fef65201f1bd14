#!/usr/bin/env bash
# Docs gate, run by CI (and by hand: tools/check_docs.sh [repo-root]).
#
#   1. Every intra-repo markdown link ([text](path) where path is not a URL
#      or a pure #anchor) must resolve to an existing file or directory.
#   2. Every snake_case name rendered as a `| `name`` table row in
#      docs/OBSERVABILITY.md must exist verbatim in src/obs/counters.h,
#      src/obs/registry.h, or src/obs/flightrec.h — stale counter/gauge/
#      lifetime-histogram/flight-event names in the doc fail the build.
#      (Dotted span names are gate 4's.  The reverse direction — every
#      name in those headers is documented — is enforced by
#      tests/test_docs.cpp.)
#   3. The injection site registry in docs/ROBUSTNESS.md and the
#      fault_site_name() list in src/runtime/faultinject.h must agree in
#      BOTH directions — a renamed/added/removed site fails the build until
#      the registry table matches.
#   4. The span-name table in docs/OBSERVABILITY.md and the span_name()
#      list in src/obs/trace.h must agree in BOTH directions, same deal:
#      dotted `| `x.y`` rows vs the header's return "x.y" strings.
#   5. The pruning-kernel entry table in docs/ALGORITHM.md (between the
#      kernel-entries markers) and the `/// kernel-entry: <name>`
#      annotations in src/curve/kernel.h must agree in BOTH directions —
#      a renamed/added/removed public kernel entry point fails the build
#      until the doc table matches.
#   6. The cache-API table in docs/API.md (between the cache-api markers)
#      and the `/// cache-entry: <name>` annotations in the src/cache/
#      headers must agree in BOTH directions — renaming or adding a cache
#      subsystem entry point fails the build until the doc table matches.
#   7. The wire-protocol tables in docs/SERVING.md (between the
#      wire-protocol markers) and the msg_type_name()/serve_error_name()
#      strings in src/serve/protocol.h must agree in BOTH directions — a
#      renamed/added/removed message or error code fails the build until
#      the doc tables match.
#   8. The lifetime-telemetry tables in docs/OBSERVABILITY.md (between the
#      lifetime-telemetry markers) and the lifetime_hist_name() /
#      flight_event_name() strings in src/obs/registry.h and
#      src/obs/flightrec.h must agree in BOTH directions — a renamed/
#      added/removed lifetime histogram or flight-recorder event fails
#      the build until the doc tables match.
#
# Exits non-zero with one line per violation; each violation is followed
# by an "  at FILE:LINE: <text>" line pointing at the offending line.

set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 1

violations=0

# blame FILE NEEDLE — print the first line of FILE containing NEEDLE
# (fixed-string match) as "  at FILE:LINE: <text>", so a violation can be
# jumped to without re-grepping.
blame() {
  grep -nF -m 1 -- "$2" "$1" 2>/dev/null | head -n 1 |
    while IFS=: read -r ln rest; do
      printf '  at %s:%s:%s\n' "$1" "$ln" "$rest"
    done
}

# --- 1. intra-repo markdown links ------------------------------------------
while IFS= read -r md; do
  base="$(dirname "$md")"
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
      *" "*) continue ;;            # not a link: code like [&](const Net& n)
    esac
    target="${target%%#*}"          # strip in-file anchors
    [ -z "$target" ] && continue
    if [ ! -e "$base/$target" ] && [ ! -e "./$target" ]; then
      echo "BROKEN LINK: $md -> $target"
      blame "$md" "($target"
      violations=$((violations + 1))
    fi
  done < <(awk '/^```/{fence=!fence; next} !fence' "$md" |
           grep -oE '\]\([^)]+\)' | sed -E 's/^\]\((.*)\)$/\1/' | grep -v '^#' || true)
done < <(find . -name '*.md' -not -path './build*' -not -path './.git/*' \
                -not -path './related/*' | sort)

# --- 2. observable names referenced by the doc exist in the source ---------
doc="docs/OBSERVABILITY.md"
hdr="src/obs/counters.h"
reghdr="src/obs/registry.h"
flthdr="src/obs/flightrec.h"
if [ -f "$doc" ] && [ -f "$hdr" ] && [ -f "$reghdr" ] && [ -f "$flthdr" ]; then
  while IFS= read -r name; do
    if ! grep -q "\"$name\"" "$hdr" "$reghdr" "$flthdr"; then
      echo "STALE NAME: $doc documents \`$name\` but no obs header defines it"
      blame "$doc" "\`$name\`"
      violations=$((violations + 1))
    fi
  done < <(grep -oE '^\| `[a-z][a-z0-9_]*`' "$doc" | sed -E 's/^\| `([a-z0-9_]+)`$/\1/' | sort -u)
else
  echo "MISSING: $doc, $hdr, $reghdr, or $flthdr"
  violations=$((violations + 1))
fi

# --- 3. fault-site registry: docs/ROBUSTNESS.md <-> faultinject.h ----------
rdoc="docs/ROBUSTNESS.md"
fhdr="src/runtime/faultinject.h"
if [ -f "$rdoc" ] && [ -f "$fhdr" ]; then
  # Sites in the source: every "dotted.name" string fault_site_name returns.
  src_sites="$(grep -oE 'return "[a-z]+\.[a-z]+"' "$fhdr" |
               sed -E 's/return "([a-z.]+)"/\1/' | sort -u)"
  # Sites in the doc: rows of the registry table, `| `dotted.name` | ...`.
  doc_sites="$(grep -oE '^\| `[a-z]+\.[a-z]+`' "$rdoc" |
               sed -E 's/^\| `([a-z.]+)`$/\1/' | sort -u)"
  for s in $src_sites; do
    if ! printf '%s\n' "$doc_sites" | grep -qx "$s"; then
      echo "UNDOCUMENTED SITE: $fhdr defines '$s' but $rdoc's registry lacks it"
      blame "$fhdr" "\"$s\""
      violations=$((violations + 1))
    fi
  done
  for s in $doc_sites; do
    if ! printf '%s\n' "$src_sites" | grep -qx "$s"; then
      echo "STALE SITE: $rdoc documents '$s' but $fhdr does not define it"
      blame "$rdoc" "\`$s\`"
      violations=$((violations + 1))
    fi
  done
else
  echo "MISSING: $rdoc or $fhdr"
  violations=$((violations + 1))
fi

# --- 4. span-name table: docs/OBSERVABILITY.md <-> trace.h -----------------
thdr="src/obs/trace.h"
if [ -f "$doc" ] && [ -f "$thdr" ]; then
  # Spans in the source: every "dotted.name" string span_name returns.
  src_spans="$(grep -oE 'return "[a-z]+\.[a-z_]+"' "$thdr" |
               sed -E 's/return "([a-z._]+)"/\1/' | sort -u)"
  # Spans in the doc: rows of the span table, `| `dotted.name` | ...`.
  doc_spans="$(grep -oE '^\| `[a-z]+\.[a-z_]+`' "$doc" |
               sed -E 's/^\| `([a-z._]+)`$/\1/' | sort -u)"
  for s in $src_spans; do
    if ! printf '%s\n' "$doc_spans" | grep -qx "$s"; then
      echo "UNDOCUMENTED SPAN: $thdr defines '$s' but $doc's span table lacks it"
      blame "$thdr" "\"$s\""
      violations=$((violations + 1))
    fi
  done
  for s in $doc_spans; do
    if ! printf '%s\n' "$src_spans" | grep -qx "$s"; then
      echo "STALE SPAN: $doc documents '$s' but $thdr does not define it"
      blame "$doc" "\`$s\`"
      violations=$((violations + 1))
    fi
  done
else
  echo "MISSING: $doc or $thdr"
  violations=$((violations + 1))
fi

# --- 5. kernel-entry table: docs/ALGORITHM.md <-> curve/kernel.h -----------
adoc="docs/ALGORITHM.md"
khdr="src/curve/kernel.h"
if [ -f "$adoc" ] && [ -f "$khdr" ]; then
  # Entries in the source: every "/// kernel-entry: Name" annotation.
  src_entries="$(grep -oE '^/// kernel-entry: [A-Za-z_][A-Za-z0-9_]*' "$khdr" |
                 sed -E 's|^/// kernel-entry: ||' | sort -u)"
  # Entries in the doc: `| `Name`` rows between the kernel-entries markers
  # (the markers scope the match so other tables' backticked rows — knobs,
  # operations — stay out of it).
  doc_entries="$(awk '/<!-- kernel-entries:begin -->/{f=1;next}
                      /<!-- kernel-entries:end -->/{f=0} f' "$adoc" |
                 grep -oE '^\| `[A-Za-z_][A-Za-z0-9_]*`' |
                 sed -E 's/^\| `([A-Za-z0-9_]+)`$/\1/' | sort -u)"
  for s in $src_entries; do
    if ! printf '%s\n' "$doc_entries" | grep -qx "$s"; then
      echo "UNDOCUMENTED ENTRY: $khdr annotates '$s' but $adoc's kernel table lacks it"
      blame "$khdr" "kernel-entry: $s"
      violations=$((violations + 1))
    fi
  done
  for s in $doc_entries; do
    if ! printf '%s\n' "$src_entries" | grep -qx "$s"; then
      echo "STALE ENTRY: $adoc documents '$s' but $khdr does not annotate it"
      blame "$adoc" "\`$s\`"
      violations=$((violations + 1))
    fi
  done
  if [ -z "$src_entries" ] || [ -z "$doc_entries" ]; then
    echo "EMPTY REGISTRY: kernel-entry annotations in $khdr or table in $adoc missing"
    violations=$((violations + 1))
  fi
else
  echo "MISSING: $adoc or $khdr"
  violations=$((violations + 1))
fi

# --- 6. cache-API table: docs/API.md <-> src/cache/ headers ----------------
capi="docs/API.md"
if [ -f "$capi" ] && [ -d "src/cache" ]; then
  # Entries in the source: every "/// cache-entry: Name" annotation in the
  # cache subsystem's headers.
  src_cache="$(grep -hoE '^/// cache-entry: [A-Za-z_][A-Za-z0-9_]*' src/cache/*.h |
               sed -E 's|^/// cache-entry: ||' | sort -u)"
  # Entries in the doc: `| `Name`` rows between the cache-api markers (the
  # markers scope the match so other backticked tables stay out of it).
  doc_cache="$(awk '/<!-- cache-api:begin -->/{f=1;next}
                    /<!-- cache-api:end -->/{f=0} f' "$capi" |
               grep -oE '^\| `[A-Za-z_][A-Za-z0-9_]*`' |
               sed -E 's/^\| `([A-Za-z0-9_]+)`$/\1/' | sort -u)"
  for s in $src_cache; do
    if ! printf '%s\n' "$doc_cache" | grep -qx "$s"; then
      echo "UNDOCUMENTED CACHE API: src/cache annotates '$s' but $capi's cache-api table lacks it"
      for h in src/cache/*.h; do
        grep -qF "cache-entry: $s" "$h" && { blame "$h" "cache-entry: $s"; break; }
      done
      violations=$((violations + 1))
    fi
  done
  for s in $doc_cache; do
    if ! printf '%s\n' "$src_cache" | grep -qx "$s"; then
      echo "STALE CACHE API: $capi documents '$s' but no src/cache header annotates it"
      blame "$capi" "\`$s\`"
      violations=$((violations + 1))
    fi
  done
  if [ -z "$src_cache" ] || [ -z "$doc_cache" ]; then
    echo "EMPTY REGISTRY: cache-entry annotations in src/cache or table in $capi missing"
    violations=$((violations + 1))
  fi
else
  echo "MISSING: $capi or src/cache"
  violations=$((violations + 1))
fi

# --- 7. wire-protocol tables: docs/SERVING.md <-> serve/protocol.h ---------
sdoc="docs/SERVING.md"
phdr="src/serve/protocol.h"
if [ -f "$sdoc" ] && [ -f "$phdr" ]; then
  # Names in the source: every "dotted.name" string msg_type_name() /
  # serve_error_name() return ("req.ping", "resp.result", "err.queue_full").
  src_wire="$(grep -oE 'return "[a-z]+\.[a-z_]+"' "$phdr" |
              sed -E 's/return "([a-z._]+)"/\1/' | sort -u)"
  # Names in the doc: `| `dotted.name`` rows between the wire-protocol
  # markers (the markers scope the match — SERVING.md also mentions the
  # serve.* span names, which belong to OBSERVABILITY.md's gate 4).
  doc_wire="$(awk '/<!-- wire-protocol:begin -->/{f=1;next}
                   /<!-- wire-protocol:end -->/{f=0} f' "$sdoc" |
              grep -oE '^\| `[a-z]+\.[a-z_]+`' |
              sed -E 's/^\| `([a-z._]+)`$/\1/' | sort -u)"
  for s in $src_wire; do
    if ! printf '%s\n' "$doc_wire" | grep -qx "$s"; then
      echo "UNDOCUMENTED WIRE NAME: $phdr defines '$s' but $sdoc's protocol tables lack it"
      blame "$phdr" "\"$s\""
      violations=$((violations + 1))
    fi
  done
  for s in $doc_wire; do
    if ! printf '%s\n' "$src_wire" | grep -qx "$s"; then
      echo "STALE WIRE NAME: $sdoc documents '$s' but $phdr does not define it"
      blame "$sdoc" "\`$s\`"
      violations=$((violations + 1))
    fi
  done
  if [ -z "$src_wire" ] || [ -z "$doc_wire" ]; then
    echo "EMPTY REGISTRY: protocol names in $phdr or wire tables in $sdoc missing"
    violations=$((violations + 1))
  fi
else
  echo "MISSING: $sdoc or $phdr"
  violations=$((violations + 1))
fi

# --- 8. lifetime-telemetry tables: docs/OBSERVABILITY.md <-> registry.h +
#        flightrec.h -----------------------------------------------------
if [ -f "$doc" ] && [ -f "$reghdr" ] && [ -f "$flthdr" ]; then
  # Names in the source: every single-word string lifetime_hist_name() /
  # flight_event_name() return, minus the unknown_* fallbacks.
  src_life="$(grep -hoE 'return "[a-z][a-z0-9_]*"' "$reghdr" "$flthdr" |
              sed -E 's/return "([a-z0-9_]+)"/\1/' |
              grep -v '^unknown_' | sort -u)"
  # Names in the doc: `| `name`` rows between the lifetime-telemetry
  # markers (the markers scope the match — the counter/gauge tables
  # above them belong to gate 2 and tests/test_docs.cpp).
  doc_life="$(awk '/<!-- lifetime-telemetry:begin -->/{f=1;next}
                   /<!-- lifetime-telemetry:end -->/{f=0} f' "$doc" |
              grep -oE '^\| `[a-z][a-z0-9_]*`' |
              sed -E 's/^\| `([a-z0-9_]+)`$/\1/' | sort -u)"
  for s in $src_life; do
    if ! printf '%s\n' "$doc_life" | grep -qx "$s"; then
      echo "UNDOCUMENTED TELEMETRY NAME: $reghdr/$flthdr define '$s' but $doc's lifetime tables lack it"
      if grep -qF "\"$s\"" "$reghdr"; then blame "$reghdr" "\"$s\""
      else blame "$flthdr" "\"$s\""; fi
      violations=$((violations + 1))
    fi
  done
  for s in $doc_life; do
    if ! printf '%s\n' "$src_life" | grep -qx "$s"; then
      echo "STALE TELEMETRY NAME: $doc documents '$s' but neither $reghdr nor $flthdr defines it"
      blame "$doc" "\`$s\`"
      violations=$((violations + 1))
    fi
  done
  if [ -z "$src_life" ] || [ -z "$doc_life" ]; then
    echo "EMPTY REGISTRY: telemetry names in $reghdr/$flthdr or lifetime tables in $doc missing"
    violations=$((violations + 1))
  fi
else
  echo "MISSING: $doc, $reghdr, or $flthdr"
  violations=$((violations + 1))
fi

if [ "$violations" -ne 0 ]; then
  echo "check_docs: $violations violation(s)"
  exit 1
fi
echo "check_docs: OK"
