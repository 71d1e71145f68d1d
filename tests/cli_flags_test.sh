#!/usr/bin/env bash
# Strict numeric flags: a malformed number is a usage error (exit 2 with a
# message naming the flag), never a silent truncation to a prefix
# (`--threads two` as 0 threads, `--concurrency 4x` as 4, `--seed 12abc`
# as seed 12). An option no tool parses (`--workers`) is rejected as
# unknown. Well-formed values still run.
#
# Usage: cli_flags_test.sh /path/to/saphyra_serve /path/to/saphyra_rank \
#                          /path/to/graph_convert
set -u

SERVE="${1:?usage: cli_flags_test.sh SERVE RANK CONVERT}"
RANK="${2:?usage: cli_flags_test.sh SERVE RANK CONVERT}"
CONVERT="${3:?usage: cli_flags_test.sh SERVE RANK CONVERT}"
TMP="$(mktemp -d /tmp/saphyra_cli_flags.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  echo "--- stderr ---" >&2
  cat "$TMP/stderr.log" >&2 || true
  exit 1
}

# expect_usage_error "<stderr pattern>" cmd args...: the command must exit
# 2 and say why on stderr.
expect_usage_error() {
  local pattern="$1"
  shift
  "$@" < /dev/null > /dev/null 2> "$TMP/stderr.log"
  local status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status (expected 2)"
  grep -qF -- "$pattern" "$TMP/stderr.log" \
    || fail "'$*' did not report '$pattern'"
}

# A ring over 24 nodes: tiny, connected, fast to query.
for i in $(seq 0 23); do
  echo "$i $(( (i + 1) % 24 ))"
done > "$TMP/ring.txt"
echo '{"id":"q","estimator":"bc","epsilon":0.3,"seed":1,"targets":[0,1]}' \
  > "$TMP/requests.ndjson"

expect_usage_error "--threads expects a non-negative integer, got two" \
  "$SERVE" --graph "$TMP/ring.txt" --threads two
expect_usage_error "--concurrency expects a non-negative integer, got 4x" \
  "$SERVE" --graph "$TMP/ring.txt" --concurrency 4x
expect_usage_error "--seed expects a non-negative integer, got 12abc" \
  "$RANK" --graph "$TMP/ring.txt" --seed 12abc
expect_usage_error "--repeat expects a non-negative integer, got -1" \
  "$SERVE" --graph "$TMP/ring.txt" --repeat -1
expect_usage_error "--epsilon expects a number, got 0.1x" \
  "$RANK" --graph "$TMP/ring.txt" --epsilon 0.1x
expect_usage_error "--bicomp-threads expects a non-negative integer, got 2x" \
  "$CONVERT" --input "$TMP/ring.txt" --bicomp-threads 2x
expect_usage_error "unknown or incomplete option: --workers" \
  "$SERVE" --graph "$TMP/ring.txt" --workers 2

# Well-formed values are accepted.
"$SERVE" --graph "$TMP/ring.txt" --no-cache --threads 2 --concurrency 4 \
  --requests "$TMP/requests.ndjson" > "$TMP/serve.out" 2> "$TMP/stderr.log" \
  || fail "saphyra_serve rejected well-formed flags"
grep -q '"ok":true' "$TMP/serve.out" || fail "saphyra_serve answered no query"
"$RANK" --graph "$TMP/ring.txt" --no-cache --seed 12 --epsilon 0.2 \
  --random-targets 4 > "$TMP/rank.out" 2> "$TMP/stderr.log" \
  || fail "saphyra_rank rejected well-formed flags"
[ "$(wc -l < "$TMP/rank.out")" -eq 4 ] || fail "saphyra_rank ranked no targets"

echo "PASS: malformed numeric flags exit 2, well-formed ones run"
