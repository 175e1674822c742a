package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"mie/internal/core"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricSetsMatchBenchmarkJSON pins the metric names, units and
// workloads the code reports to the ones BENCHMARK.json declares.
func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// layersDoingWork lists, per workload, the per-layer metrics whose layer
// runs there and so must be non-zero. Every other per-layer metric is
// reported as 0 on that workload.
var layersDoingWork = map[string][]string{
	"search": {
		"client.prepare_query_ms", "imaging.extract_ms", "imaging.descriptors",
		"dpe.dense_encode_us", "dpe.dense_encodes", "dpe.sparse_tokens",
		"wire.search_codec_us", "wire.search_frame_bytes", "wire.search_allocs", "wire.result_codec_us",
		"client.search_rpc_ms", "server.search_ms", "client.transport_ms",
		"core.search_text_ms", "core.search_image_ms", "core.search_fused_ms", "fusion.fuse_us",
		"core.update_ms", "core.train_ms", "cluster.vocab_train_ms", "train_s",
		"replica.lag_p50_ms", "replica.lag_p99_ms", "replica.catchup_ms",
		"gen.late_p99_ms", "search.attributed_frac", "p90_ms", "p99_ms", "heap_peak_mib",
		"search_text_p50_ms", "search_image_p50_ms", "search_fused_p50_ms",
	},
	"fleet": {
		"client.prepare_query_ms", "client.prepare_update_ms", "dpe.sparse_tokens",
		"crypto.encrypt_us", "crypto.ciphertext_bytes",
		"wire.update_codec_us", "wire.update_frame_bytes", "wire.update_allocs",
		"wire.search_codec_us", "wire.search_frame_bytes", "wire.search_allocs", "wire.result_codec_us",
		"client.update_rpc_ms", "client.search_rpc_ms", "server.update_ms", "server.search_ms", "client.transport_ms",
		"wal.append_us", "wal.sync_us", "wal.bytes_per_add",
		"lifecycle.cold_frac", "lifecycle.activate_p50_ms", "lifecycle.activate_p99_ms",
		"lifecycle.evictions", "lifecycle.resident_mib",
		"gen.late_p99_ms", "fleet.attributed_frac", "add.attributed_frac", "p90_ms", "p99_ms", "heap_peak_mib",
	},
}

// TestTinyRunsEmitEveryMetric runs every workload at tiny scale, untraced
// and traced, and checks that each run passes its correctness checks and
// reports exactly the declared metrics with their units, non-zero where
// the metric applies to the workload.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real stack")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1.5, trace: traced, root: t.TempDir(), sz: tinySizes()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs, nonZero := endToEnd, map[string]bool{}
			for _, d := range endToEnd {
				nonZero[d.name] = true
			}
			if traced {
				defs, nonZero = perLayer, map[string]bool{}
				for _, m := range layersDoingWork[name] {
					nonZero[m] = true
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case nonZero[d.name] && m.Value == 0:
					t.Errorf("%s trace=%v: %s is 0 on a workload where its layer runs", name, traced, d.name)
				}
			}
		}
	}
}

// TestLayerTableCoversPerLayerSet keeps layersDoingWork naming only
// declared metrics, and every declared layer metric on some workload
// (apart from those that are 0 by design).
func TestLayerTableCoversPerLayerSet(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	used := map[string]bool{}
	for w, ms := range layersDoingWork {
		for _, m := range ms {
			if !declared[m] {
				t.Errorf("%s: %s is not a per-layer metric", w, m)
			}
			used[m] = true
		}
	}
	zeroByDesign := map[string]bool{"client.retries": true, "failed_frac": true, "trace.overhead_frac": true}
	for _, d := range perLayer {
		if !used[d.name] && !zeroByDesign[d.name] {
			t.Errorf("%s runs on no workload", d.name)
		}
	}
}

func hitsFor(ids ...string) []core.SearchHit {
	var hs []core.SearchHit
	for i, id := range ids {
		hs = append(hs, core.SearchHit{ObjectID: id, Score: float64(len(ids) - i), Ciphertext: []byte(id)})
	}
	return hs
}

func shadowOf(hits []core.SearchHit) func(int) ([]core.SearchHit, error) {
	return func(int) ([]core.SearchHit, error) { return hits, nil }
}

// TestChecksCatchWrongResults hands each correctness check a wrong result
// and expects it to fail.
func TestChecksCatchWrongResults(t *testing.T) {
	tampered := hitsFor("a", "b")
	tampered[1].Ciphertext = []byte("other")
	store := map[string][]byte{"a": []byte("ct-a"), "b": []byte("ct-b")}
	get := func(m map[string][]byte) getFunc {
		return func(_, id string) ([]byte, error) {
			ct, ok := m[id]
			if !ok {
				return nil, errors.New("unknown object")
			}
			return ct, nil
		}
	}
	identity := func(ct []byte) ([]byte, error) { return ct, nil }
	good := []ack{{id: "a", ct: []byte("ct-a")}, {id: "b", plain: []byte("ct-b"), open: identity}}
	if err := checkAcked(good, get(store), get(store)); err != nil {
		t.Fatalf("correct replicas rejected: %v", err)
	}
	dropped := map[string][]byte{"a": store["a"]}
	diverged := map[string][]byte{"a": store["a"], "b": []byte("ct-x")}
	cases := map[string]error{
		"dropped ack on the follower": checkAcked(good, get(store), get(dropped)),
		"dropped ack on the leader":   checkAcked(good, get(dropped)),
		"replicas diverge":            checkAcked(good, get(store), get(diverged)),
		"other ciphertext stored":     checkAcked([]ack{{id: "a", ct: []byte("ct-b")}}, get(store)),
		"decrypts to other content":   checkAcked([]ack{{id: "a", plain: []byte("x"), open: identity}}, get(store)),
		"does not decrypt": checkAcked([]ack{{id: "a", plain: []byte("x"), open: func([]byte) ([]byte, error) {
			return nil, errors.New("bad tag")
		}}}, get(store)),
		"swapped hit":   checkParity([][]core.SearchHit{hitsFor("a", "b")}, shadowOf(hitsFor("b", "a"))),
		"missing hit":   checkParity([][]core.SearchHit{hitsFor("a", "b")}, shadowOf(hitsFor("a"))),
		"other payload": checkParity([][]core.SearchHit{hitsFor("a", "b")}, shadowOf(tampered)),
	}
	for name, err := range cases {
		var ce checkError
		if !errors.As(err, &ce) {
			t.Errorf("%s: check returned %v, want a check failure", name, err)
		}
	}
	if err := checkParity([][]core.SearchHit{hitsFor("a", "b")}, shadowOf(hitsFor("a", "b"))); err != nil {
		t.Errorf("equal results rejected: %v", err)
	}
	// A near-tie that the shadow resolves both ways passes once the
	// shadow produces the remote order.
	flip := 0
	alternating := func(int) ([]core.SearchHit, error) {
		flip++
		if flip%2 == 1 {
			return hitsFor("b", "a"), nil
		}
		return hitsFor("a", "b"), nil
	}
	if err := checkParity([][]core.SearchHit{hitsFor("a", "b")}, alternating); err != nil {
		t.Errorf("a result the shadow also gives was rejected: %v", err)
	}
}

func TestQuantileCountsFailuresAsSlowest(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed op = %v, want it past any limit", got)
	}
}
