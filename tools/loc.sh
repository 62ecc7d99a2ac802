#!/usr/bin/env bash
# Non-test lines per crate: for every crates/*/src/**/*.rs file, the lines
# above its first column-0 `#[cfg(test)]` (the whole file when it has
# none), summed per crate. This is the count ROADMAP.md and CHANGES.md
# quote for a PR's line delta.
#
#   tools/loc.sh [<base-rev>]
#
# Counts the working tree. With a base revision it also counts that
# revision, read through `git show` (nothing is checked out), and prints
# each crate's delta against it.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1-}"
if [[ $# -gt 1 || "${base}" == -* ]]; then
  echo "usage: tools/loc.sh [<base-rev>]" >&2
  exit 2
fi
if [[ -n "${base}" ]] && ! git rev-parse -q --verify "${base}^{commit}" >/dev/null; then
  echo "tools/loc.sh: '${base}' is not a commit" >&2
  exit 2
fi

# Reads "<path>\t<lines above its first #[cfg(test)]>" rows on stdin and
# prints "<crate> <sum>" per crate, sorted.
per_crate() {
  awk -F'\t' '{ split($1, p, "/"); sum[p[2]] += $2 } END { for (c in sum) print c, sum[c] }' | sort
}

# The non-test line count of the file on stdin.
count() {
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

is_source() {
  [[ "$1" =~ ^crates/[^/]+/src/.*\.rs$ ]]
}

head_rows=$(git ls-files --cached --others --exclude-standard -- crates | while read -r path; do
  if is_source "${path}" && [[ -f "${path}" ]]; then
    printf '%s\t%s\n' "${path}" "$(count <"${path}")"
  fi
done | per_crate)

base_rows=""
if [[ -n "${base}" ]]; then
  base_rows=$(git ls-tree -r --name-only "${base}" -- crates | while read -r path; do
    if is_source "${path}"; then
      printf '%s\t%s\n' "${path}" "$(git show "${base}:${path}" | count)"
    fi
  done | per_crate)
fi

# Joins the two tables on the crate name (a crate on one side only counts
# 0 on the other) and prints them with a total row.
if [[ -n "${base}" ]]; then
  join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(echo "${head_rows}") <(echo "${base_rows}")
else
  echo "${head_rows}" | awk '{ print $1, $2, 0 }'
fi |
  awk -v has_base="${base:+1}" -v base="${base}" '
    NF == 3 {
      rows[++n] = $1; here[$1] = $2; there[$1] = $3
      total_here += $2; total_there += $3
    }
    function row(name, a, b) {
      if (has_base) printf "%-14s %7d %7d %+7d\n", name, a, b, a - b
      else printf "%-14s %7d\n", name, a
    }
    END {
      if (has_base) printf "%-14s %7s %7s %7s\n", "crate", "lines", substr(base, 1, 7), "delta"
      else printf "%-14s %7s\n", "crate", "lines"
      for (i = 1; i <= n; i++) row(rows[i], here[rows[i]], there[rows[i]])
      row("total", total_here, total_there)
    }'
