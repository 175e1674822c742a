#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, build, and the full test suite under the
# race detector (the concurrent metrics registry and server counters must be
# race-clean). Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# The commands must also vet clean under the static-networking build tag
# used for fully static deploy builds.
go vet -tags netgo ./cmd/...
go build ./...
# -shuffle surfaces inter-test ordering dependencies; -cover prints a
# per-package coverage summary so coverage regressions are visible in CI
# logs.
# The goroutine-leak sentinel (internal/leakcheck) must stay wired into the
# connection-lifecycle tests; a silent drop would let Close-path leaks pass.
for pkg in internal/server internal/client internal/replica internal/router; do
    if ! grep -q "leakcheck.Check" "$pkg"/*_test.go; then
        echo "check.sh: $pkg tests no longer use the leakcheck sentinel" >&2
        exit 1
    fi
done

# Layering gate first and by name: the segmented-index refactor depends on
# core/index/cluster staying free of transport imports (and index/cluster
# free of upward imports), and the scale-out tier on replica/router never
# reaching into the server. The full suite runs these too, but a fast,
# explicit failure here names the broken boundary instead of burying it.
go test -run 'TestEngineLayersDoNotImportTransport|TestIndexAndClusterDoNotImportCore|TestReplicationTierImportBoundaries' ./internal/core

go test -race -shuffle=on -cover ./...

# Repeat pass: a second shuffled run in one process surfaces state that
# leaks between runs of a test (process-global counters, slots held past a
# reply) and order dependence the single pass above can miss. Packages join
# this list once they pass it; a failure is fixed in the code.
go test -race -count=2 -shuffle=on ./internal/dpe ./internal/vec ./internal/index ./internal/device ./internal/server \
    ./internal/wire ./internal/client ./internal/router ./internal/replica

# Incremental-training smoke (~seconds at quick scale, well under its 30 s
# budget): retrain-after-churn must keep resolving through the incremental
# path, not silently fall back to full rebuilds. INCSMOKE=0 skips.
INCSMOKE="${INCSMOKE:-1}"
if [ "$INCSMOKE" != "0" ]; then
    inc_out=$(go run ./cmd/mie-bench -scale quick -experiment none -obs-out "" \
        -incremental -incremental-out "")
    echo "$inc_out"
    if ! echo "$inc_out" | grep -q "mode=incremental"; then
        echo "check.sh: incremental smoke did not take the incremental train path" >&2
        exit 1
    fi
fi

# Approximate-dense-search smoke (~seconds at quick scale): the multi-probe
# LSH candidate path must keep recall@10 >= 0.9 at its best operating point
# — a recall regression here means probe enumeration or the re-rank sweep
# broke even though the parity tests (which use exhaustive budgets) still
# pass. ANNSMOKE=0 skips.
ANNSMOKE="${ANNSMOKE:-1}"
if [ "$ANNSMOKE" != "0" ]; then
    ann_out=$(go run ./cmd/mie-bench -scale quick -experiment none -obs-out "" \
        -ann -ann-out "")
    echo "$ann_out"
    recall=$(echo "$ann_out" | sed -n 's/^ann: best recall@10 \([0-9.]*\).*/\1/p')
    if [ -z "$recall" ]; then
        echo "check.sh: ANN smoke produced no summary line" >&2
        exit 1
    fi
    if ! awk -v r="$recall" 'BEGIN { exit !(r >= 0.9) }'; then
        echo "check.sh: ANN smoke recall@10 $recall below the 0.9 floor" >&2
        exit 1
    fi
fi

# Multi-tenancy smoke (~seconds at quick scale): 500 repositories churned
# through lazy activation and LRU eviction under a 16 MiB budget. Every
# acknowledged write must survive the churn, and the resident accounting
# must never overshoot the budget by more than 10% (transiently, while the
# eviction pass catches up). TENANCYSMOKE=0 skips.
TENANCYSMOKE="${TENANCYSMOKE:-1}"
if [ "$TENANCYSMOKE" != "0" ]; then
    ten_out=$(go run ./cmd/mie-bench -scale quick -experiment none -obs-out "" \
        -tenancy -tenancy-out "")
    echo "$ten_out"
    ten_sum=$(echo "$ten_out" | sed -n 's/^tenancy: //p')
    if [ -z "$ten_sum" ]; then
        echo "check.sh: tenancy smoke produced no summary line" >&2
        exit 1
    fi
    lost=$(echo "$ten_sum" | sed -n 's/.*lost_acks=\([0-9]*\).*/\1/p')
    over=$(echo "$ten_sum" | sed -n 's/.*max_over_budget=\([0-9.]*\).*/\1/p')
    if [ "$lost" != "0" ]; then
        echo "check.sh: tenancy smoke lost $lost acknowledged writes" >&2
        exit 1
    fi
    if ! awk -v o="$over" 'BEGIN { exit !(o <= 0.10) }'; then
        echo "check.sh: tenancy smoke overshot the memory budget by $over (> 10%)" >&2
        exit 1
    fi
fi

# Cluster smoke (~seconds at quick scale): a 2-node WAL-shipping cluster
# behind the consistent-hash router, with a leader kill and restart in the
# middle of an acknowledged-write ledger. Zero acknowledged writes may be
# lost and leader/follower search results must be identical after catch-up.
# CLUSTERSMOKE=0 skips.
CLUSTERSMOKE="${CLUSTERSMOKE:-1}"
if [ "$CLUSTERSMOKE" != "0" ]; then
    cluster_out=$(go run ./cmd/mie-bench -scale quick -experiment none -obs-out "" \
        -cluster -cluster-out "")
    echo "$cluster_out"
    cluster_sum=$(echo "$cluster_out" | sed -n 's/^cluster: //p')
    if [ -z "$cluster_sum" ]; then
        echo "check.sh: cluster smoke produced no summary line" >&2
        exit 1
    fi
    cl_lost=$(echo "$cluster_sum" | sed -n 's/.*lost_acks=\([0-9]*\).*/\1/p')
    cl_parity=$(echo "$cluster_sum" | sed -n 's/.*parity=\([a-zA-Z]*\).*/\1/p')
    cl_kills=$(echo "$cluster_sum" | sed -n 's/.*leader_kills=\([0-9]*\).*/\1/p')
    if [ "$cl_lost" != "0" ]; then
        echo "check.sh: cluster smoke lost $cl_lost acknowledged writes across a leader kill" >&2
        exit 1
    fi
    if [ "$cl_parity" != "ok" ]; then
        echo "check.sh: cluster smoke leader/follower search parity broken" >&2
        exit 1
    fi
    if [ "$cl_kills" = "0" ]; then
        echo "check.sh: cluster smoke never killed the leader — the failover phase did not run" >&2
        exit 1
    fi
fi

# Fuzz smoke over the decoders that face untrusted or crash-damaged input:
# wire frames arriving off the network and WAL bytes read back after a
# crash must fail cleanly, never panic. FUZZTIME=0 skips (corpus-only
# replay already ran as part of go test above).
FUZZTIME="${FUZZTIME:-30s}"
if [ "$FUZZTIME" != "0" ]; then
    go test -run='^$' -fuzz=FuzzReadFrame -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzEnvelopeDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzReplRecordDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzPayloadDecode -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" ./internal/wal
fi

echo "check.sh: all gates passed"
