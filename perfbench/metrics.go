package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The set must match
// BENCHMARK.json; the self-test checks that it does.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees; every workload reports every
// one of them (untraced run). Per workload, p50_ms and ops_per_s measure
// that workload's own operations: searches on search, the mixed tenant
// operations on fleet.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"map", "ratio"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// perLayer comes from the traced run. A layer that does no work on a
// workload reports 0 there.
var perLayer = []metricDef{
	{"client.prepare_update_ms", "ms"},
	{"client.prepare_query_ms", "ms"},
	{"imaging.extract_ms", "ms"},
	{"imaging.descriptors", "count"},
	{"dpe.dense_encode_us", "us"},
	{"dpe.dense_encodes", "count"},
	{"dpe.sparse_tokens", "count"},
	{"crypto.encrypt_us", "us"},
	{"crypto.ciphertext_bytes", "bytes"},
	{"wire.update_codec_us", "us"},
	{"wire.update_frame_bytes", "bytes"},
	{"wire.update_allocs", "count"},
	{"wire.search_codec_us", "us"},
	{"wire.search_frame_bytes", "bytes"},
	{"wire.search_allocs", "count"},
	{"wire.result_codec_us", "us"},
	{"client.update_rpc_ms", "ms"},
	{"client.search_rpc_ms", "ms"},
	{"client.retries", "count"},
	{"server.update_ms", "ms"},
	{"server.search_ms", "ms"},
	{"client.transport_ms", "ms"},
	{"core.update_ms", "ms"},
	{"core.search_text_ms", "ms"},
	{"core.search_image_ms", "ms"},
	{"core.search_fused_ms", "ms"},
	{"core.train_ms", "ms"},
	{"cluster.vocab_train_ms", "ms"},
	{"fusion.fuse_us", "us"},
	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.bytes_per_add", "bytes"},
	{"replica.lag_p50_ms", "ms"},
	{"replica.lag_p99_ms", "ms"},
	{"replica.catchup_ms", "ms"},
	{"lifecycle.cold_frac", "ratio"},
	{"lifecycle.activate_p50_ms", "ms"},
	{"lifecycle.activate_p99_ms", "ms"},
	{"lifecycle.evictions", "count"},
	{"lifecycle.resident_mib", "MiB"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"add.attributed_frac", "ratio"},
	{"search.attributed_frac", "ratio"},
	{"fleet.attributed_frac", "ratio"},
	// Moved here from the end-to-end set, measured on the untraced half of
	// the traced run. p90, p99 and the heap peak do not repeat within a tenth
	// between runs on a shared two-core machine; the rest exist on one or
	// two workloads only (or are always 0), while every end-to-end metric
	// must be reported, non-zero, on every workload.
	{"p90_ms", "ms"},
	{"p99_ms", "ms"},
	{"heap_peak_mib", "MiB"},
	{"train_s", "s"},
	{"search_text_p50_ms", "ms"},
	{"search_image_p50_ms", "ms"},
	{"search_fused_p50_ms", "ms"},
	{"failed_frac", "ratio"},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// failedMs stands for an infinite latency, which JSON cannot carry: the
// percentile fell on a failed or refused operation.
const failedMs = 1e12

// fill builds the metrics object for defs from vals; a name missing from
// vals reports 0 (its layer did no work on this workload).
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 0):
			v = math.Copysign(failedMs, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. +Inf entries — failed or refused operations — sort
// last, so they count as over any latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
