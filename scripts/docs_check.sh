#!/usr/bin/env bash
# docs_check.sh — keep the docs' shell examples honest.
#
# Scans fenced ```sh blocks in the markdown docs and verifies, by grep:
#   1. every `./cmd/NAME` or `go run ./cmd/NAME` names a directory that
#      exists;
#   2. every -flag on such a command line is registered somewhere in that
#      command's sources or the shared flag set (internal/cli/cli.go);
#   3. every `make TARGET` names a target defined in the Makefile;
#   4. the allow-directive table in docs/ARCHITECTURE.md §8 lists exactly
#      the sites scripts/lint_allows.sh reports. A comma list such as
#      `engine.go:433,445` stands for one site per line number;
#   5. every backticked `pkg.Name` anywhere in the docs, where internal/pkg
#      is a directory and Name is exported, names a func, method, type,
#      const, var or field declared in internal/pkg/*.go.
#
# This is deliberately a textual check: it cannot prove an example is
# correct, but it catches the common staleness — a renamed flag, a
# removed command, a dropped make target — the moment it happens.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md EXPERIMENTS.md DESIGN.md docs/*.md)
FAIL=0

# extract_sh FILE: print the contents of ```sh fenced blocks, with
# backslash-continued lines joined so flags stay on their command line.
extract_sh() {
  awk '
    /^```sh[[:space:]]*$/ { in_block = 1; next }
    /^```/ { in_block = 0 }
    in_block { print }
  ' "$1" | sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta'
}

flag_registered() { # flag_registered FLAG CMD
  local flag=$1 cmd=$2
  grep -l "\"$flag\"" cmd/"$cmd"/*.go internal/cli/cli.go >/dev/null 2>&1
}

for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || continue
  while IFS= read -r line; do
    # Rule 1+2: command lines referring to ./cmd/NAME.
    for cmd in $(grep -oE '\./cmd/[a-z0-9_-]+' <<<"$line" | sed 's|\./cmd/||' | sort -u); do
      if [ ! -d "cmd/$cmd" ]; then
        echo "$doc: stale command ./cmd/$cmd in: $line" >&2
        FAIL=1
        continue
      fi
      for flag in $(grep -oE '(^| )-[a-z][a-z0-9-]*' <<<"$line" | tr -d ' ' | sed 's/^-//' | sort -u); do
        if ! flag_registered "$flag" "$cmd"; then
          echo "$doc: flag -$flag not registered by cmd/$cmd (or internal/cli): $line" >&2
          FAIL=1
        fi
      done
    done
    # Rule 3: make targets.
    for target in $(grep -oE '(^|[;&(] *)make +[a-z][a-z0-9_-]*' <<<"$line" | awk '{print $NF}' | sort -u); do
      if ! grep -qE "^$target:" Makefile; then
        echo "$doc: make target '$target' not in Makefile: $line" >&2
        FAIL=1
      fi
    done
  done < <(extract_sh "$doc")
done

# Rule 4: the §8 allow table against the directives themselves. The
# audit's own exit status (an empty justification) is make lint-allows'
# business; only its site column matters here.
table_sites=$(awk '/^### Allow-directive inventory/ { on = 1; next } /^#/ { on = 0 } on' docs/ARCHITECTURE.md \
  | grep -oE '^\| `[^`]+:[0-9,]+`' | sed -E 's/^\| `//; s/`$//' \
  | awk -F: '{ n = split($2, lines, ","); for (i = 1; i <= n; i++) print $1 ":" lines[i] }' | LC_ALL=C sort)
allow_sites=$({ scripts/lint_allows.sh || true; } | awk 'NR > 1 && $1 ~ /:[0-9]+$/ { print $1 }' | LC_ALL=C sort)
if [ "$table_sites" != "$allow_sites" ]; then
  echo "docs/ARCHITECTURE.md: §8 allow table (<) differs from scripts/lint_allows.sh (>):" >&2
  diff <(echo "$table_sites") <(echo "$allow_sites") >&2 || true
  FAIL=1
fi

# Rule 5: `pkg.Name` references resolve to a declaration. Only the first
# identifier after the package is checked (`experiments.Fit.Gate` checks
# Fit). A declaration is a func or method, a type, const or var at the
# start of a line, or an indented name (a field, or an entry of a type,
# const or var block) followed by its type or a comma.
refs=$(grep -ohE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*' "${DOCS[@]}" 2>/dev/null | tr -d '`' | LC_ALL=C sort -u)
for ref in $refs; do
  pkg=${ref%%.*} name=${ref#*.}
  [ -d "internal/$pkg" ] || continue
  decl="^(func (\([^)]*\) )?$name[[(]|(type|const|var) $name[ =[]|[[:space:]]+([A-Za-z_][A-Za-z0-9_]*, *)*$name[ ,	])"
  if ! grep -qE "$decl" internal/"$pkg"/*.go; then
    echo "docs: \`$ref\` names nothing declared in internal/$pkg:" >&2
    grep -nF "\`$ref" "${DOCS[@]}" 2>/dev/null | sed 's/^/  /' >&2
    FAIL=1
  fi
done

if [ "$FAIL" -ne 0 ]; then
  echo "docs-check: FAIL — the docs above reference things that no longer exist or sit elsewhere" >&2
  exit 1
fi
echo "docs-check: OK — every ./cmd reference, flag and make target in the docs' sh blocks exists, the §8 allow table matches make lint-allows, and every \`pkg.Name\` reference resolves"
