#!/usr/bin/env bash
# Runs the golden runs listed in runs.txt and checks each one's stdout and exit code.
#
#   bash tests/golden/check.sh [SUBCOMMAND...]
#
# Only the runs of the given subcommands run, or every run when none is given.
# A run with a warnings filter runs as `python -W <filter> -m linkdelay.cli`,
# the others through the `linkdelay` script; both are looked up on PATH.
set -eu -o pipefail
cd "$(dirname "$0")"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
grep '^[^#]' runs.txt | while read -r golden exit_code warnings subcommand args; do
  if [ $# -gt 0 ] && [[ " $* " != *" $subcommand "* ]]; then
    continue
  fi
  if [ "$warnings" = - ]; then
    run=(linkdelay)
  else
    run=(python -W "$warnings" -m linkdelay.cli)
  fi
  code=0
  "${run[@]}" "$subcommand" $args < /dev/null > "$out" || code=$?
  echo "${run[*]} $subcommand $args: exit $code"
  test "$code" -eq "$exit_code"
  diff "$out" "$golden"
done
