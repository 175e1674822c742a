package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/wal"
)

// Fleet operation kinds.
const (
	opSearch = iota
	opGet
	opAdd
)

// The fleet's traffic is the churn of the repository's multi-tenancy
// experiment (internal/experiments/tenancy.go): each op touches a tenant
// drawn uniformly from the whole fleet or, half the time, from a hot set
// of n/20 tenants (at most 64), and one op in five is an acknowledged
// write. That experiment's reads are all Gets; here they are split evenly
// between Get and Search, the two read kinds a tenant serves.
const (
	fleetAddShare = 0.2
	fleetHotShare = 0.5
)

// fleetHotSet is the size of the hot set among n tenants.
func fleetHotSet(n int) int { return min(max(n/20, 1), 64) }

type fleetOp struct {
	kind   int
	tenant int
	doc    int // the stored document a Get reads or a Search quotes
}

// fleetEnv is one set-up of the fleet workload.
type fleetEnv struct {
	st      *stack
	client  *core.Client
	key     crypto.Key
	conns   [workers]*client.Conn
	tenants []string
	docs    [][]*core.Object
	pool    []*core.Object // content of the Adds
	ops     []fleetOp
	trace   *fleetTrace
}

func (e *fleetEnv) close() {
	if e.trace != nil {
		e.trace.close()
	}
	for _, c := range e.conns {
		if c != nil {
			c.Close()
		}
	}
	if e.st != nil {
		if err := e.st.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close fleet stack:", err)
		}
	}
}

// setupFleet builds every tenant, trained, in an in-memory service and
// saves their snapshots in one pass, then serves the directory from a lazy
// service whose memory budget holds only a fraction of the tenants. The
// bulk load writes each snapshot once; building on a durable service would
// also write one per created repository and fsync each, so set-up time
// would follow the disk more than the program.
func setupFleet(ctx context.Context, b *bench, dir string) (*fleetEnv, error) {
	sz, seed := b.cfg.sz, b.cfg.seed
	e := &fleetEnv{key: seededKey(seed, "data")}
	var err error
	if e.client, err = newClient(seed); err != nil {
		return nil, err
	}
	build, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		return nil, err
	}
	textOnly := core.RepositoryOptions{Modalities: []core.Modality{core.ModalityText}}
	for t := 0; t < sz.fleetRepos; t++ {
		id := fmt.Sprintf("tenant-%04d", t)
		docs := dataset.SyntheticText(dataset.SyntheticTextParams{N: sz.fleetObjects, Seed: seed*100003 + int64(t)})
		e.tenants, e.docs = append(e.tenants, id), append(e.docs, docs)
		repo, err := build.CreateRepository(id, textOnly)
		if err == nil {
			for _, d := range docs {
				var up *core.Update
				if up, err = e.client.PrepareUpdate(d, e.key); err == nil {
					err = repo.Update(up)
				}
				if err != nil {
					break
				}
			}
		}
		if err == nil {
			err = repo.Train()
		}
		if err != nil {
			build.Close()
			return nil, fmt.Errorf("build tenant %s: %w", id, err)
		}
	}
	if err := core.SaveService(build, filepath.Join(dir, "leader")); err != nil {
		build.Close()
		return nil, err
	}
	if err := build.Close(); err != nil {
		return nil, err
	}
	e.pool = dataset.SyntheticText(dataset.SyntheticTextParams{N: 256, Seed: seed + 7})
	rng := rand.New(rand.NewSource(seed))
	hot := rng.Perm(sz.fleetRepos)[:fleetHotSet(sz.fleetRepos)]
	for i := 0; i < 20000; i++ {
		op := fleetOp{tenant: rng.Intn(sz.fleetRepos), doc: rng.Intn(sz.fleetObjects)}
		if rng.Float64() < fleetHotShare {
			op.tenant = hot[rng.Intn(len(hot))]
		}
		switch r := rng.Float64(); {
		case r < fleetAddShare:
			op.kind = opAdd
		case r < fleetAddShare+(1-fleetAddShare)/2:
			op.kind = opGet
		default:
			op.kind = opSearch
		}
		e.ops = append(e.ops, op)
	}
	if e.st, err = startStack(dir, core.ServiceOptions{Sync: wal.SyncAlways, LazyActivation: true, MemoryBudget: sz.fleetBudget}, false); err != nil {
		return nil, err
	}
	for w := range e.conns {
		if e.conns[w], err = client.Dial(e.st.addr(), nil); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// queryText quotes the first words of a stored document.
func queryText(d *core.Object) string {
	words := strings.Fields(d.Text)
	return strings.Join(words[:min(3, len(words))], " ")
}

// fleetAcks collects acknowledged Adds per worker.
type fleetAcks [workers][]ack

// do runs fleet op i on conn. Each op is the same composition the public
// Repository methods make — Client prepare, then the Conn call — because a
// mie.Open handle owns a connection per repository and the fleet has
// hundreds.
func (e *fleetEnv) do(ctx context.Context, b *bench, conn *client.Conn, i int, acks *[]ack) error {
	op := e.ops[i%len(e.ops)]
	tenant := e.tenants[op.tenant]
	doc := e.docs[op.tenant][op.doc]
	switch op.kind {
	case opSearch:
		q, err := e.client.PrepareQueryContext(ctx, &core.Object{Text: queryText(doc)}, b.cfg.sz.k)
		if err != nil {
			return err
		}
		_, err = conn.Search(ctx, tenant, q)
		return err
	case opGet:
		_, _, err := conn.Get(ctx, tenant, doc.ID)
		return err
	}
	obj := *e.pool[i%len(e.pool)]
	obj.ID = fmt.Sprintf("add-%07d", i)
	up, err := e.client.PrepareUpdateContext(ctx, &obj, e.key)
	if err != nil {
		return err
	}
	if err := conn.Update(ctx, tenant, up); err != nil {
		return err
	}
	*acks = append(*acks, ack{tenant: tenant, id: obj.ID, ct: up.Ciphertext})
	return nil
}

func runFleet(ctx context.Context, b *bench) error {
	e, err := setupRepeated(ctx, b, setupFleet)
	if err != nil {
		return err
	}
	defer e.close()
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	sz := b.cfg.sz
	var acks fleetAcks
	op := func(ctx context.Context, w, i int) error { return e.do(ctx, b, e.conns[w], i, &acks[w]) }
	if b.tr == nil {
		open := openLoop(ctx, sz.fleetRate, dur*6/10, b.cfg.seed, op)
		// The closed loop continues the op sequence where the open loop
		// stopped, so its Adds get fresh ids.
		n0 := open.attempted
		closed := closedLoop(ctx, dur*4/10, func(ctx context.Context, w, i int) error { return op(ctx, w, n0+i) })
		b.st.merge(open)
		b.st.merge(closed)
		b.latency(open)
		b.vals["ops_per_s"] = closed.perSecond()
	} else {
		heap := startHeapSampler()
		open := openLoop(ctx, sz.fleetRate, dur/2, b.cfg.seed, op)
		b.vals["heap_peak_mib"] = heap.peakMiB()
		b.st.merge(open)
		b.latency(open)
		b.vals["gen.late_p99_ms"] = quantile(open.late, 0.99)
		if err := e.tracedPhase(ctx, b, dur/2, open.attempted, &acks); err != nil {
			return err
		}
		b.vals["trace.overhead_frac"] = quantile(e.trace.st.lat, 0.5)/quantile(open.lat, 0.5) - 1
		b.layerMetrics(e.trace.st.attempted)
	}
	return e.check(ctx, b, &acks)
}

// check evicts every tenant that took Adds, reads each acked Add back
// through the server (reactivating the tenant from disk), scores
// known-item retrieval, and measures stored bytes per plaintext byte.
func (e *fleetEnv) check(ctx context.Context, b *bench, acks *fleetAcks) error {
	var all []ack
	touched := map[string]bool{}
	for _, as := range acks {
		all = append(all, as...)
		for _, a := range as {
			touched[a.tenant] = true
		}
	}
	activations := e.st.svc.Lifecycle().Activations
	for _, id := range sortedKeys(touched) {
		// Nothing is in flight, so only a fault refuses; a tenant that is
		// already cold evicts as a no-op.
		if err := e.st.svc.EvictRepository(id); err != nil {
			return checkFailf("evict %s before the read-back: %v", id, err)
		}
	}
	get := func(tenant, id string) ([]byte, error) {
		ct, _, err := e.conns[0].Get(ctx, tenant, id)
		return ct, err
	}
	if err := checkAcked(all, get); err != nil {
		return err
	}
	if n := e.st.svc.Lifecycle().Activations - activations; n < uint64(len(touched)) {
		return checkFailf("read-back activated %d tenants, but %d were evicted", n, len(touched))
	}
	rng := rand.New(rand.NewSource(b.cfg.seed + 1))
	var ap []float64
	for n := 0; n < 40; n++ {
		t := rng.Intn(len(e.tenants))
		d := e.docs[t][rng.Intn(len(e.docs[t]))]
		q, err := e.client.PrepareQueryContext(ctx, &core.Object{Text: d.Text}, b.cfg.sz.k)
		if err != nil {
			return err
		}
		hits, err := e.conns[0].Search(ctx, e.tenants[t], q)
		if err != nil {
			return fmt.Errorf("quality search: %w", err)
		}
		ap = append(ap, averagePrecision(hits, []string{d.ID}))
	}
	b.vals["map"] = mean(ap)
	var userBytes int64
	for _, docs := range e.docs {
		for _, d := range docs {
			plain, err := d.Marshal()
			if err != nil {
				return err
			}
			userBytes += int64(len(plain))
		}
	}
	for _, a := range all {
		// Adds reuse pool texts under fresh ids; the ciphertext length is
		// the plaintext length plus the cipher's fixed overhead.
		userBytes += int64(len(a.ct) - cipherOverhead)
	}
	stored, err := dirBytes(e.st.dir, "")
	if err != nil {
		return err
	}
	b.vals["stored_bytes_per_user_byte"] = float64(stored) / float64(userBytes)
	return nil
}

// cipherOverhead is what crypto.Cipher adds to a plaintext (nonce + tag).
var cipherOverhead = func() int {
	ct, err := crypto.NewCipher(crypto.Key{}).Encrypt(nil)
	if err != nil {
		panic(err)
	}
	return len(ct)
}()

// fleetTrace is the traced phase's extra state.
type fleetTrace struct {
	tracedConns
	st *phaseStats
	// acquire serializes the benchmark's own Service.Acquire calls so the
	// activation counter delta around one call is that call's.
	acquire sync.Mutex

	mu    sync.Mutex
	lastU *core.Update
	lastQ *core.Query
}

func (e *fleetEnv) tracedPhase(ctx context.Context, b *bench, dur time.Duration, n0 int, acks *fleetAcks) error {
	t := &fleetTrace{}
	e.trace = t
	if err := t.open(e.st.addr()); err != nil {
		return err
	}
	ev0 := e.st.svc.Lifecycle().Evictions
	walBefore, err := dirBytes(e.st.dir, ".wal")
	if err != nil {
		return err
	}
	acked0 := len(acks[0]) + len(acks[1])
	t.st = openLoop(ctx, b.cfg.sz.fleetRate, dur, b.cfg.seed+2, func(ctx context.Context, w, i int) error {
		return e.tracedOp(ctx, b, t, w, n0+i, &acks[w])
	})
	b.st.merge(t.st)
	walAfter, err := dirBytes(e.st.dir, ".wal")
	if err != nil {
		return err
	}
	if adds := len(acks[0]) + len(acks[1]) - acked0; adds > 0 && walAfter > walBefore {
		perAdd := int(walAfter-walBefore) / adds
		b.vals["wal.bytes_per_add"] = float64(perAdd)
		if err := b.calibrateWAL(perAdd, min(adds, 200)); err != nil {
			return err
		}
	}
	b.vals["lifecycle.evictions"] = float64(e.st.svc.Lifecycle().Evictions - ev0)
	acquires := len(b.tr.byName()["lifecycle.acquire"])
	if acquires > 0 {
		b.vals["lifecycle.cold_frac"] = float64(len(b.tr.byName()["lifecycle.activate"])) / float64(acquires)
	}
	b.vals["lifecycle.resident_mib"] = median(b.notes.get("lifecycle.resident_mib"))
	if t.lastU != nil {
		b.vals["wire.update_allocs"] = allocsPerRoundTrip(func() (codec, error) { return updateCodec(t.lastU) })
	}
	if t.lastQ != nil {
		b.vals["wire.search_allocs"] = allocsPerRoundTrip(func() (codec, error) { return searchCodec(t.lastQ) })
	}
	b.vals["client.retries"] = t.retries()
	return nil
}

// tracedOp runs one fleet op with the tenant pinned by the benchmark's own
// Service.Acquire first, so activation cost is timed as its own span and
// the server's Acquire finds the tenant resident.
func (e *fleetEnv) tracedOp(ctx context.Context, b *bench, t *fleetTrace, w, i int, acks *[]ack) error {
	tr := b.tr
	fop := e.ops[i%len(e.ops)]
	tenant := e.tenants[fop.tenant]
	doc := e.docs[fop.tenant][fop.doc]
	op, root := tr.id(), tr.id()
	start := time.Now()

	t.acquire.Lock()
	before := e.st.svc.Lifecycle().Activations
	var release func()
	var err error
	acq := tr.timed("lifecycle.acquire", op, root, false, func() int {
		_, release, err = e.st.svc.Acquire(tenant)
		return 0
	})
	life := e.st.svc.Lifecycle()
	t.acquire.Unlock()
	if err != nil {
		return err
	}
	defer release()
	if life.Activations > before {
		tr.add(span{Name: "lifecycle.activate", Op: op, ID: tr.id(), Parent: root, Start: acq.Start, End: acq.End})
	}
	b.notes.add("lifecycle.resident_mib", float64(life.ResidentBytes)/(1<<20))

	var rpcStart, end time.Time
	var server, clientLeaves float64
	var clientCodec time.Duration
	switch fop.kind {
	case opSearch:
		var pq *core.Query
		tr.timed("client.prepare_query", op, root, false, func() int {
			pq, err = e.client.PrepareQueryContext(ctx, &core.Object{Text: queryText(doc)}, b.cfg.sz.k)
			return 0
		})
		if err != nil {
			return err
		}
		rpcStart = time.Now()
		var hits []core.SearchHit
		hits, err = t.conns[w].Search(ctx, tenant, pq)
		end = time.Now()
		server = b.rpcSpan(t.relays[w], "client.search_rpc", "server.search", op, root, rpcStart, end)
		if err != nil {
			break
		}
		req, cerr := b.shadowCodec("wire.search_codec", op, root, func() (codec, error) { return searchCodec(pq) })
		resp, rerr := b.shadowCodec("wire.result_codec", op, root, func() (codec, error) { return resultCodec(hits) })
		if cerr != nil || rerr != nil {
			return fmt.Errorf("codec shadow: %v %v", cerr, rerr)
		}
		clientCodec = req.enc + resp.dec
		b.notes.add("dpe.sparse_tokens", float64(len(pq.TextTokens)))
		t.mu.Lock()
		t.lastQ = pq
		t.mu.Unlock()
	case opGet:
		rpcStart = time.Now()
		_, _, err = t.conns[w].Get(ctx, tenant, doc.ID)
		end = time.Now()
		server = b.rpcSpan(t.relays[w], "client.get_rpc", "server.get", op, root, rpcStart, end)
	case opAdd:
		obj := *e.pool[i%len(e.pool)]
		obj.ID = fmt.Sprintf("add-%07d", i)
		var up *core.Update
		tr.timed("client.prepare_update", op, root, false, func() int {
			up, err = e.client.PrepareUpdateContext(ctx, &obj, e.key)
			return 0
		})
		if err != nil {
			return err
		}
		rpcStart = time.Now()
		err = t.conns[w].Update(ctx, tenant, up)
		end = time.Now()
		server = b.rpcSpan(t.relays[w], "client.update_rpc", "server.update", op, root, rpcStart, end)
		if err != nil {
			break
		}
		*acks = append(*acks, ack{tenant: tenant, id: obj.ID, ct: up.Ciphertext})
		key := e.key
		if clientLeaves, err = b.shadowClient(e.client, op, root, &obj, &key); err != nil {
			return err
		}
		c, cerr := b.shadowCodec("wire.update_codec", op, root, func() (codec, error) { return updateCodec(up) })
		if cerr != nil {
			return cerr
		}
		clientCodec = c.enc
		b.notes.add("dpe.sparse_tokens", float64(len(up.TextTokens)))
		t.mu.Lock()
		t.lastU = up
		t.mu.Unlock()
	}
	tr.add(span{Name: "fleet", Op: op, ID: root, Start: tr.ns(start), End: tr.ns(end)})
	if err != nil {
		return err
	}
	frac := min(1, (acq.ms()+clientLeaves+ms(clientCodec)+server)/ms(end.Sub(start)))
	b.notes.add("fleet.attributed_frac", frac)
	if fop.kind == opAdd {
		b.notes.add("add.attributed_frac", frac)
	}
	return nil
}
