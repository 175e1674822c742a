package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"mie"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/fusion"
	"mie/internal/index"
	"mie/internal/vec"
	"mie/internal/wal"
)

const searchRepo = "search"

// query is one search of the rotation.
type query struct {
	kind string // text, image or fused
	obj  *core.Object
}

// searchEnv is one set-up of the search workload.
type searchEnv struct {
	st      *stack
	client  *core.Client
	repos   [workers]mie.Repository
	corpus  []*core.Object
	hol     *dataset.HolidaysSet
	queries []query
	trace   *searchTrace
}

func (e *searchEnv) close() {
	if e.trace != nil {
		e.trace.close()
	}
	for _, r := range e.repos {
		if r != nil {
			r.Close()
		}
	}
	if e.st != nil {
		if err := e.st.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close search stack:", err)
		}
	}
}

// makeQueries builds the seeded rotation: text queries are a few tags of a
// corpus object, image queries are fresh renderings of a corpus object's
// topic (similar, never identical, to stored images), and fused queries
// carry both.
func makeQueries(rng *rand.Rand, flickr []*core.Object, perKind int) []query {
	var qs []query
	for i := 0; i < perKind; i++ {
		j := rng.Intn(len(flickr))
		words := strings.Fields(flickr[j].Text)
		text := strings.Join(words[:min(3, len(words))], " ")
		// dataset.Flickr assigns object j the topic j mod 8.
		img := dataset.TopicImage(imagePx, j%8, rng.Int63())
		qs = append(qs,
			query{"text", &core.Object{ID: "q", Text: text}},
			query{"image", &core.Object{ID: "q", Image: img}},
			query{"fused", &core.Object{ID: "q", Text: text, Image: dataset.TopicImage(imagePx, j%8, rng.Int63())}})
	}
	rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
	return qs
}

func setupSearch(ctx context.Context, b *bench, dir string) (*searchEnv, error) {
	sz, seed := b.cfg.sz, b.cfg.seed
	flickr := dataset.Flickr(dataset.FlickrParams{N: sz.searchFlickr, ImageSize: imagePx, Seed: seed})
	e := &searchEnv{
		hol:     dataset.Holidays(dataset.HolidaysParams{Groups: sz.searchHoliday, ImageSize: imagePx, Seed: seed}),
		queries: makeQueries(rand.New(rand.NewSource(seed)), flickr, sz.searchQueries),
	}
	e.corpus = append(flickr, e.hol.Objects...)
	var err error
	if e.client, err = newClient(seed); err != nil {
		return nil, err
	}
	if e.st, err = startStack(dir, core.ServiceOptions{Sync: wal.SyncAlways}, true); err != nil {
		return nil, err
	}
	for w := range e.repos {
		opts := mie.Options{Addr: e.st.addr(), Client: e.client, RepoID: searchRepo, Create: w == 0, Repo: repoOptions()}
		if e.repos[w], err = mie.Open(ctx, opts); err != nil {
			e.close()
			return nil, fmt.Errorf("open repository: %w", err)
		}
	}
	// Preload with both uploaders, then train. A traced run measures the
	// follower's replication lag over the preload: the timed phase only
	// reads.
	var lag *lagProbe
	if b.tr != nil {
		lag = startLagProbe(b, e.st, searchRepo)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range e.repos {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(e.corpus) && errs[w] == nil; i += workers {
				errs[w] = e.repos[w].Add(ctx, e.corpus[i], seededKey(seed, "data"))
				if errs[w] == nil && lag != nil {
					lag.mark(e.st.hub.Head(searchRepo).Seq)
				}
			}
		}(w)
	}
	wg.Wait()
	if lag != nil {
		catchup, err := waitCaughtUp(ctx, e.st, searchRepo)
		lag.stop()
		if err != nil {
			e.close()
			return nil, err
		}
		b.vals["replica.catchup_ms"] = ms(catchup)
	}
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	t0 := time.Now()
	if err := e.repos[0].Train(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("train: %w", err)
	}
	b.notes.add("train_s", time.Since(t0).Seconds())
	// The new epoch re-syncs the follower by snapshot; let that finish
	// before anything is timed.
	if _, err := waitCaughtUp(ctx, e.st, searchRepo); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// shadowBuild replays the corpus, prepared again by the same client, into
// a fresh embedded repository, timing each update as the engine's share of
// an Add, then times its Train and the vocabulary construction alone.
func (e *searchEnv) shadowBuild(ctx context.Context, b *bench) error {
	leader, err := e.st.svc.Repository(searchRepo)
	if err != nil {
		return err
	}
	shadow, err := core.NewRepository("shadow-build", leader.Options())
	if err != nil {
		return err
	}
	defer shadow.Close()
	limit := leader.Options().TrainingSampleCap
	var sample []vec.BitVec
	for _, o := range e.corpus {
		up, err := e.client.PrepareUpdateContext(ctx, o, seededKey(b.cfg.seed, "data"))
		if err != nil {
			return err
		}
		b.tr.timed("core.update", 0, 0, true, func() int {
			err = shadow.UpdateContext(ctx, up)
			return 0
		})
		if err != nil {
			return fmt.Errorf("shadow update: %w", err)
		}
		sample = append(sample, up.ImageEncodings[:min(len(up.ImageEncodings), limit-len(sample))]...)
	}
	return b.shadowTrain(ctx, shadow, sample)
}

func runSearch(ctx context.Context, b *bench) error {
	e, err := setupRepeated(ctx, b, setupSearch)
	if err != nil {
		return err
	}
	defer e.close()
	b.vals["train_s"] = median(b.notes.get("train_s"))
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	sz := b.cfg.sz
	kinds := make([][]string, workers)
	search := func(ctx context.Context, w, i int) error {
		q := e.queries[i%len(e.queries)]
		kinds[w] = append(kinds[w], q.kind)
		_, err := e.repos[w].Search(ctx, q.obj, sz.k)
		return err
	}
	if b.tr == nil {
		open := openLoop(ctx, sz.searchRate, dur*6/10, b.cfg.seed, search)
		closed := closedLoop(ctx, dur*4/10, search)
		b.st.merge(open)
		b.st.merge(closed)
		b.latency(open)
		b.vals["ops_per_s"] = closed.perSecond()
	} else {
		heap := startHeapSampler()
		open := openLoop(ctx, sz.searchRate, dur/2, b.cfg.seed, search)
		b.vals["heap_peak_mib"] = heap.peakMiB()
		b.st.merge(open)
		b.latency(open)
		// Per-kind latency from the untraced half: worker w's samples are
		// in the order it ran them, as are its kinds.
		byKind := map[string][]float64{}
		i := 0
		for w := range kinds {
			for _, k := range kinds[w] {
				byKind[k] = append(byKind[k], open.lat[i])
				i++
			}
		}
		for k, lat := range byKind {
			b.vals["search_"+k+"_p50_ms"] = quantile(lat, 0.5)
		}
		b.vals["gen.late_p99_ms"] = quantile(open.late, 0.99)
		if err := e.tracedPhase(ctx, b, dur/2); err != nil {
			return err
		}
		b.vals["trace.overhead_frac"] = quantile(e.trace.st.lat, 0.5)/quantile(open.lat, 0.5) - 1
		if err := e.shadowBuild(ctx, b); err != nil {
			return err
		}
		b.layerMetrics(e.trace.st.attempted)
	}
	return e.check(ctx, b)
}

// check compares a seeded sample of remote results with an embedded clone
// of the leader's repository, checks the follower's copy of the corpus,
// scores mAP on the near-duplicate groups, and measures stored bytes per
// plaintext byte.
func (e *searchEnv) check(ctx context.Context, b *bench) error {
	shadow, err := e.shadowClone()
	if err != nil {
		return err
	}
	defer shadow.Close()
	rng := rand.New(rand.NewSource(b.cfg.seed + 1))
	var remote [][]core.SearchHit
	var prepared []*core.Query
	for n := 0; n < 24; n++ {
		q := e.queries[rng.Intn(len(e.queries))]
		r, err := e.repos[0].Search(ctx, q.obj, b.cfg.sz.k)
		if err != nil {
			return fmt.Errorf("parity search: %w", err)
		}
		pq, err := e.client.PrepareQueryContext(ctx, q.obj, b.cfg.sz.k)
		if err != nil {
			return err
		}
		remote, prepared = append(remote, r), append(prepared, pq)
	}
	if err := checkParity(remote, func(i int) ([]core.SearchHit, error) {
		return shadow.SearchContext(ctx, prepared[i])
	}); err != nil {
		return err
	}
	if err := e.checkReplicas(b); err != nil {
		return err
	}
	var ap []float64
	for _, q := range e.hol.Queries {
		hits, err := e.repos[0].Search(ctx, q.Query, b.cfg.sz.k)
		if err != nil {
			return fmt.Errorf("quality search: %w", err)
		}
		ap = append(ap, averagePrecision(hits, q.Relevant))
	}
	b.vals["map"] = mean(ap)
	var userBytes int64
	for _, o := range e.corpus {
		plain, err := o.Marshal()
		if err != nil {
			return err
		}
		userBytes += int64(len(plain))
	}
	stored, err := dirBytes(e.st.dir, "")
	if err != nil {
		return err
	}
	b.vals["stored_bytes_per_user_byte"] = float64(stored) / float64(userBytes)
	return nil
}

// checkReplicas verifies that every preloaded object reads back with the
// same ciphertext from the leader and the caught-up follower, and that it
// decrypts to the object added.
func (e *searchEnv) checkReplicas(b *bench) error {
	leader, err := e.st.svc.Repository(searchRepo)
	if err != nil {
		return err
	}
	follower, err := e.st.fsvc.Repository(searchRepo)
	if err != nil {
		return checkFailf("follower lacks the repository: %v", err)
	}
	open := crypto.NewCipher(seededKey(b.cfg.seed, "data")).Decrypt
	acks := make([]ack, 0, len(e.corpus))
	for _, o := range e.corpus {
		plain, err := o.Marshal()
		if err != nil {
			return err
		}
		acks = append(acks, ack{id: o.ID, plain: plain, open: open})
	}
	get := func(r *core.Repository) getFunc {
		return func(_, id string) ([]byte, error) {
			ct, _, err := r.Get(id)
			return ct, err
		}
	}
	return checkAcked(acks, get(leader), get(follower))
}

// shadowClone loads the leader's current snapshot into an embedded,
// in-memory repository: the same engine state without server or WAL.
func (e *searchEnv) shadowClone() (*core.Repository, error) {
	leader, err := e.st.svc.Repository(searchRepo)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := leader.Snapshot(&buf); err != nil {
		return nil, err
	}
	return core.LoadRepository(&buf, nil)
}

// searchTrace is the traced phase's extra state.
type searchTrace struct {
	tracedConns
	shadow *core.Repository
	st     *phaseStats

	mu    sync.Mutex
	lastQ *core.Query
}

func (t *searchTrace) close() {
	t.tracedConns.close()
	if t.shadow != nil {
		t.shadow.Close()
	}
}

func (e *searchEnv) tracedPhase(ctx context.Context, b *bench, dur time.Duration) error {
	t := &searchTrace{}
	e.trace = t
	var err error
	if t.shadow, err = e.shadowClone(); err != nil {
		return err
	}
	if err := t.open(e.st.addr()); err != nil {
		return err
	}
	t.st = openLoop(ctx, b.cfg.sz.searchRate, dur, b.cfg.seed+2, func(ctx context.Context, w, i int) error {
		return e.tracedSearch(ctx, b, t, w, e.queries[i%len(e.queries)])
	})
	b.st.merge(t.st)
	if t.lastQ != nil {
		b.vals["wire.search_allocs"] = allocsPerRoundTrip(func() (codec, error) { return searchCodec(t.lastQ) })
	}
	b.vals["client.retries"] = t.retries()
	return nil
}

// tracedSearch is one search split into the client half and the round
// trip, with the client layers, codec, engine and fusion re-run as shadow
// spans on its real inputs.
func (e *searchEnv) tracedSearch(ctx context.Context, b *bench, t *searchTrace, w int, q query) error {
	tr := b.tr
	k := b.cfg.sz.k
	op, root := tr.id(), tr.id()
	start := time.Now()
	var pq *core.Query
	var err error
	tr.timed("client.prepare_query", op, root, false, func() int {
		pq, err = e.client.PrepareQueryContext(ctx, q.obj, k)
		return 0
	})
	if err != nil {
		return err
	}
	rpcStart := time.Now()
	hits, err := t.conns[w].Search(ctx, searchRepo, pq)
	end := time.Now()
	tr.add(span{Name: "search", Op: op, ID: root, Start: tr.ns(start), End: tr.ns(end)})
	server := b.rpcSpan(t.relays[w], "client.search_rpc", "server.search", op, root, rpcStart, end)
	if err != nil {
		return err
	}

	leaves, err := b.shadowClient(e.client, op, root, q.obj, nil)
	if err != nil {
		return err
	}
	req, err := b.shadowCodec("wire.search_codec", op, root, func() (codec, error) { return searchCodec(pq) })
	if err != nil {
		return err
	}
	resp, err := b.shadowCodec("wire.result_codec", op, root, func() (codec, error) { return resultCodec(hits) })
	if err != nil {
		return err
	}
	tr.timed("core.search_"+q.kind, op, root, true, func() int {
		_, err = t.shadow.SearchContext(ctx, pq)
		return 0
	})
	if err != nil {
		return fmt.Errorf("shadow search: %w", err)
	}
	if q.kind == "fused" {
		if err := e.shadowFuse(ctx, b, t.shadow, op, root, pq); err != nil {
			return err
		}
	}
	b.notes.add("dpe.sparse_tokens", float64(len(pq.TextTokens)))
	b.notes.add("search.attributed_frac", min(1, (leaves+ms(req.enc)+ms(resp.dec)+server)/ms(end.Sub(start))))
	t.mu.Lock()
	t.lastQ = pq
	t.mu.Unlock()
	return nil
}

// shadowFuse times rank fusion alone on the fused query's real
// per-modality candidate lists, taken from the shadow repository.
func (e *searchEnv) shadowFuse(ctx context.Context, b *bench, shadow *core.Repository, op, parent int64, pq *core.Query) error {
	depth := 10 * pq.K
	var lists [][]index.Result
	for _, sub := range []core.Query{{TextTokens: pq.TextTokens, K: depth}, {ImageEncodings: pq.ImageEncodings, K: depth}} {
		hits, err := shadow.SearchContext(ctx, &sub)
		if err != nil {
			return fmt.Errorf("shadow fusion input: %w", err)
		}
		list := make([]index.Result, len(hits))
		for i, h := range hits {
			list[i] = index.Result{Doc: index.DocID(h.ObjectID), Score: h.Score}
		}
		lists = append(lists, list)
	}
	b.tr.timed("fusion.fuse", op, parent, true, func() int {
		return len(fusion.Fuse(fusion.LogISR, lists, pq.K))
	})
	return nil
}
