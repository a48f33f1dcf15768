#!/usr/bin/env bash
# loc.sh — Go line count of the root module: every .go file git tracks or
# would add (ignored files and the bench/ module left out), counted without
# and with the _test.go files.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() { xargs -r cat | wc -l; }
all=$(git ls-files --cached --others --exclude-standard -- '*.go' ':!:bench/**')
without=$(grep -v '_test\.go$' <<<"$all" | count)
with=$(count <<<"$all")
echo "go lines (root module, bench/ excluded): $without without tests, $with with tests"
