package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mie/internal/cluster"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/imaging"
	"mie/internal/vec"
	"mie/internal/wal"
	"mie/internal/wire"
)

// notes collects per-op values that are not span durations (counts,
// derived times), keyed by metric name.
type notes struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func (n *notes) add(name string, v float64) {
	n.mu.Lock()
	if n.vals == nil {
		n.vals = map[string][]float64{}
	}
	n.vals[name] = append(n.vals[name], v)
	n.mu.Unlock()
}

func (n *notes) get(name string) []float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]float64(nil), n.vals[name]...)
}

// rpcSpan records a traced round trip [start, end) as span name under
// parent, and the server's share of it as seen by the worker's relay. It
// returns the server time in ms (0 when the relay saw no exchange).
func (b *bench) rpcSpan(rl *relay, name, serverName string, op, parent int64, start, end time.Time) float64 {
	tr := b.tr
	id := tr.id()
	tr.add(span{Name: name, Op: op, ID: id, Parent: parent, Start: tr.ns(start), End: tr.ns(end)})
	e, ok := rl.exchangeWithin(start, end)
	if !ok {
		return 0
	}
	tr.add(span{Name: serverName, Op: op, ID: tr.id(), Parent: id, Start: tr.ns(e.reqEnd), End: tr.ns(e.respStart)})
	server := ms(e.respStart.Sub(e.reqEnd))
	b.notes.add("client.transport_ms", ms(end.Sub(start))-server)
	return server
}

// shadowClient re-runs the client layers of one prepared object on its
// real input — feature extraction, Dense-DPE encoding and, for updates,
// encryption — and returns the summed leaf time in ms.
func (b *bench) shadowClient(cl *core.Client, op, parent int64, obj *core.Object, dk *crypto.Key) (float64, error) {
	tr := b.tr
	total := 0.0
	if obj.Image != nil {
		var descs [][]float64
		s := tr.timed("imaging.extract", op, parent, true, func() int {
			descs = imaging.Extract(obj.Image, imaging.PyramidParams{})
			return len(descs)
		})
		var err error
		e := tr.timed("dpe.dense_encode", op, parent, true, func() int {
			for _, d := range descs {
				if _, err = cl.Dense().Encode(d); err != nil {
					break
				}
			}
			return len(descs)
		})
		if err != nil {
			return 0, fmt.Errorf("shadow dense encode: %w", err)
		}
		total += s.ms() + e.ms()
	}
	if dk != nil {
		plain, err := obj.Marshal()
		if err != nil {
			return 0, err
		}
		c := tr.timed("crypto.encrypt", op, parent, true, func() int {
			var ct []byte
			ct, err = crypto.NewCipher(*dk).Encrypt(plain)
			return len(ct)
		})
		if err != nil {
			return 0, fmt.Errorf("shadow encrypt: %w", err)
		}
		total += c.ms()
	}
	return total, nil
}

// codec is one codec round trip: frame size and the time spent encoding
// and decoding.
type codec struct {
	bytes    int
	enc, dec time.Duration
}

// codecRoundTrip encodes payload as one wire frame of the given kind and
// decodes it back into into.
func codecRoundTrip(kind string, payload, into interface{}) (codec, error) {
	t0 := time.Now()
	env, err := wire.NewEnvelope(kind, "", 1, 0, payload)
	if err != nil {
		return codec{}, err
	}
	var buf bytes.Buffer
	n, err := wire.WriteEnvelope(&buf, env)
	if err != nil {
		return codec{}, err
	}
	t1 := time.Now()
	got, _, err := wire.ReadFrame(&buf)
	if err == nil {
		err = got.Decode(into)
	}
	return codec{bytes: n, enc: t1.Sub(t0), dec: time.Since(t1)}, err
}

func updateCodec(up *core.Update) (codec, error) {
	var out wire.UpdateReq
	return codecRoundTrip(wire.KindUpdate, wire.UpdateReq{RepoID: "r", Update: *up}, &out)
}

func searchCodec(q *core.Query) (codec, error) {
	var out wire.SearchReq
	return codecRoundTrip(wire.KindSearch, wire.SearchReq{RepoID: "r", Query: *q}, &out)
}

func resultCodec(hits []core.SearchHit) (codec, error) {
	var out wire.SearchResp
	return codecRoundTrip(wire.KindSearchResp, wire.SearchResp{Hits: hits}, &out)
}

// shadowCodec times one codec round trip of an op's real payload as a
// shadow span.
func (b *bench) shadowCodec(name string, op, parent int64, fn func() (codec, error)) (codec, error) {
	var c codec
	var err error
	b.tr.timed(name, op, parent, true, func() int {
		c, err = fn()
		return c.bytes
	})
	if err != nil {
		return c, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// allocsPerRoundTrip counts heap allocations of one codec round trip. Run
// it only once load has stopped: the count covers every goroutine.
func allocsPerRoundTrip(fn func() (codec, error)) float64 {
	return testing.AllocsPerRun(20, func() { _, _ = fn() })
}

// calibrateWAL times Append and Sync on a scratch log with records of the
// size the leader's log grew by per Add.
func (b *bench) calibrateWAL(recBytes, n int) error {
	if recBytes <= 0 || n <= 0 {
		return nil
	}
	l, _, err := wal.Open(filepath.Join(b.work, "scratch.wal"), wal.Options{Sync: wal.SyncNever}, nil)
	if err != nil {
		return err
	}
	payload := make([]byte, recBytes)
	for i := 0; i < n && err == nil; i++ {
		b.tr.timed("wal.append", 0, 0, true, func() int { err = l.Append(payload); return recBytes })
		if err == nil {
			b.tr.timed("wal.sync", 0, 0, true, func() int { err = l.Sync(); return 0 })
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal calibration: %w", err)
	}
	return nil
}

// shadowTrain times Train on an embedded shadow repository, and the
// vocabulary construction alone on a sample of its image encodings.
func (b *bench) shadowTrain(ctx context.Context, shadow *core.Repository, sample []vec.BitVec) error {
	var err error
	b.tr.timed("core.train", 0, 0, true, func() int {
		err = shadow.TrainContext(ctx)
		return shadow.Size()
	})
	if err != nil {
		return fmt.Errorf("shadow train: %w", err)
	}
	params := shadow.Options().Vocab
	kmeans := func(ps []vec.BitVec, k int, seed int64) ([]vec.BitVec, []int, error) {
		res, err := cluster.HammingKMeans(ps, k, cluster.Options{Seed: seed, MaxIter: params.MaxIter})
		if err != nil {
			return nil, nil, err
		}
		return res.Centroids, res.Assignments, nil
	}
	dist := func(a, b vec.BitVec) float64 { return float64(vec.Hamming(a, b)) }
	b.tr.timed("cluster.vocab_train", 0, 0, true, func() int {
		_, err = cluster.TrainVocabulary(sample, params, kmeans, dist)
		return len(sample)
	})
	if err != nil {
		return fmt.Errorf("shadow vocabulary: %w", err)
	}
	return nil
}

// layerMetrics turns the recorded spans and notes into per-layer values.
func (b *bench) layerMetrics(ops int) {
	by := b.tr.byName()
	durMs := func(name string) []float64 {
		var xs []float64
		for _, s := range by[name] {
			xs = append(xs, s.ms())
		}
		return xs
	}
	sumN := func(name string) float64 {
		t := 0.0
		for _, s := range by[name] {
			t += float64(s.N)
		}
		return t
	}
	meanN := func(name string) float64 {
		if len(by[name]) == 0 {
			return 0
		}
		return sumN(name) / float64(len(by[name]))
	}
	msMetric := map[string]string{
		"client.prepare_update_ms":  "client.prepare_update",
		"client.prepare_query_ms":   "client.prepare_query",
		"imaging.extract_ms":        "imaging.extract",
		"client.update_rpc_ms":      "client.update_rpc",
		"client.search_rpc_ms":      "client.search_rpc",
		"server.update_ms":          "server.update",
		"server.search_ms":          "server.search",
		"core.update_ms":            "core.update",
		"core.search_text_ms":       "core.search_text",
		"core.search_image_ms":      "core.search_image",
		"core.search_fused_ms":      "core.search_fused",
		"core.train_ms":             "core.train",
		"cluster.vocab_train_ms":    "cluster.vocab_train",
		"lifecycle.activate_p50_ms": "lifecycle.activate",
	}
	for metric, name := range msMetric {
		b.vals[metric] = median(durMs(name))
	}
	usMetric := map[string]string{
		"crypto.encrypt_us":    "crypto.encrypt",
		"wire.update_codec_us": "wire.update_codec",
		"wire.search_codec_us": "wire.search_codec",
		"wire.result_codec_us": "wire.result_codec",
		"fusion.fuse_us":       "fusion.fuse",
		"wal.append_us":        "wal.append",
		"wal.sync_us":          "wal.sync",
	}
	for metric, name := range usMetric {
		b.vals[metric] = median(durMs(name)) * 1e3
	}
	b.vals["lifecycle.activate_p99_ms"] = quantile(durMs("lifecycle.activate"), 0.99)
	b.vals["imaging.descriptors"] = meanN("imaging.extract")
	if n := sumN("dpe.dense_encode"); n > 0 {
		t := 0.0
		for _, x := range durMs("dpe.dense_encode") {
			t += x
		}
		b.vals["dpe.dense_encode_us"] = t * 1e3 / n
		b.vals["dpe.dense_encodes"] = n / float64(ops)
	}
	b.vals["crypto.ciphertext_bytes"] = meanN("crypto.encrypt")
	b.vals["wire.update_frame_bytes"] = meanN("wire.update_codec")
	b.vals["wire.search_frame_bytes"] = meanN("wire.search_codec")
	b.vals["dpe.sparse_tokens"] = mean(b.notes.get("dpe.sparse_tokens"))
	b.vals["client.transport_ms"] = median(b.notes.get("client.transport_ms"))
	lag := b.notes.get("replica.lag_ms")
	b.vals["replica.lag_p50_ms"] = quantile(lag, 0.5)
	b.vals["replica.lag_p99_ms"] = quantile(lag, 0.99)
	for _, kind := range []string{"add", "search", "fleet"} {
		b.vals[kind+".attributed_frac"] = median(b.notes.get(kind + ".attributed_frac"))
	}
}
