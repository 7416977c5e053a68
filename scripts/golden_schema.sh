#!/usr/bin/env bash
# Fails when a wire-format golden changed without a schema bump.
#
# internal/snap/testdata holds the diag-snap/v1 goldens and
# internal/journal/testdata the diag-journal/v1 one. TestGolden alone
# cannot tell a deliberate format change from a regenerated golden
# (-update / -golden), so this compares the checkout against the merge
# base with REF: any file under a package's testdata that differs while
# that package's `const Schema` string is unchanged is an error.
#
# Usage: scripts/golden_schema.sh [REF]   (default REF: HEAD~1)
# Needs the history back to the merge base (a full clone).
set -euo pipefail

ref=${1:-HEAD~1}
base=$(git merge-base HEAD "$ref")
status=0
for pkg in internal/snap internal/journal; do
	changed=$(git diff --name-only "$base" -- "$pkg/testdata")
	[ -n "$changed" ] || continue
	old=$(git grep -h '^const Schema = ' "$base" -- "$pkg/*.go" || true)
	new=$(git grep -h '^const Schema = ' -- "$pkg/*.go" || true)
	if [ "$old" = "$new" ]; then
		echo "$pkg: golden bytes changed since $base but Schema did not (${new#const Schema = }):" >&2
		echo "$changed" | sed 's/^/  /' >&2
		echo "a format change needs a schema version bump; an unchanged format must keep its goldens" >&2
		status=1
	else
		echo "$pkg: goldens changed with a schema bump (${old#const Schema = } -> ${new#const Schema = })"
	fi
done
exit $status
