package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mie/internal/cluster"
	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/obs"
	"mie/internal/replica"
	"mie/internal/server"
	"mie/internal/wal"
)

// stack is the system under test: a durable leader service behind a
// loopback wire-v2 server and, where asked, one in-process follower
// replicating from it.
type stack struct {
	dir  string
	svc  *core.Service
	srv  *server.Server
	hub  *replica.Hub
	fsvc *core.Service
	fol  *replica.Follower
}

func startStack(dir string, opts core.ServiceOptions, follower bool) (*stack, error) {
	st := &stack{dir: filepath.Join(dir, "leader")}
	opts.Dir = st.dir
	var err error
	if st.svc, _, err = core.OpenService(opts); err != nil {
		return nil, fmt.Errorf("open leader: %w", err)
	}
	var srvOpts []server.Option
	reg := obs.NewRegistry()
	if follower {
		st.hub = replica.NewHub(st.svc, reg)
		srvOpts = append(srvOpts, server.WithReplication(st.hub))
	}
	if st.srv, err = server.New("127.0.0.1:0", st.svc, nil, srvOpts...); err != nil {
		st.close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	if !follower {
		return st, nil
	}
	if st.fsvc, _, err = core.OpenService(core.ServiceOptions{Dir: filepath.Join(dir, "follower"), Sync: wal.SyncAlways}); err != nil {
		st.close()
		return nil, fmt.Errorf("open follower: %w", err)
	}
	if st.fol, err = replica.StartFollower(st.fsvc, st.srv.Addr(), reg, nil); err != nil {
		st.close()
		return nil, fmt.Errorf("start follower: %w", err)
	}
	return st, nil
}

func (st *stack) addr() string { return st.srv.Addr() }

// close stops everything the stack started and waits for it.
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if st.fol != nil {
		st.fol.Close()
	}
	if st.srv != nil {
		keep(st.srv.Close())
	}
	if st.fsvc != nil {
		keep(st.fsvc.Close())
	}
	if st.svc != nil {
		keep(st.svc.Close())
	}
	return first
}

// dirBytes sums the sizes of the regular files under dir whose names end
// in suffix ("" for all).
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() && strings.HasSuffix(fi.Name(), suffix) {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// seededKey derives a deterministic key from the run seed, so the same
// seed gives the same encodings.
func seededKey(seed int64, label string) crypto.Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	sum := sha256.Sum256(append([]byte("perfbench/"+label+"/"), b[:]...))
	k, err := crypto.KeyFromBytes(sum[:crypto.KeySize])
	if err != nil {
		panic(err) // KeySize bytes always make a key
	}
	return k
}

// newClient builds the trusted client half for a run.
func newClient(seed int64) (*core.Client, error) {
	return core.NewClient(core.ClientConfig{Key: core.RepositoryKey{Master: seededKey(seed, "repo")}})
}

// repoOptions is the engine configuration of the image workloads: the
// default-scale vocabulary of internal/experiments, with the k-means
// sample capped so one Train stays near a second on two cores. The
// clustering seeds are fixed, as a deployment's would be; only the inputs
// follow the run seed.
func repoOptions() core.RepositoryOptions {
	return core.RepositoryOptions{
		Vocab: cluster.VocabParams{
			Words:   200,
			Tree:    cluster.TreeParams{Branch: 4, Height: 3, Seed: 1},
			Seed:    1,
			MaxIter: 15,
		},
		TrainingSampleCap: 6000,
	}
}

// waitCaughtUp blocks until the follower's cursor for repo matches the
// leader's head and returns how long that took.
func waitCaughtUp(ctx context.Context, st *stack, repo string) (time.Duration, error) {
	start := time.Now()
	for st.fol.Cursor(repo) != st.hub.Head(repo) {
		if time.Since(start) > 30*time.Second {
			return 0, checkFailf("follower not caught up after 30s: follower %+v, leader %+v", st.fol.Cursor(repo), st.hub.Head(repo))
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return time.Since(start), nil
}

// lagProbe measures replication lag from outside: after each ack it notes
// the leader's stream head, and a poller records when the follower's
// cursor reaches it.
type lagProbe struct {
	b       *bench
	mu      sync.Mutex
	pending []lagMark
	quit    chan struct{}
	done    chan struct{}
}

type lagMark struct {
	seq uint64
	at  time.Time
}

func startLagProbe(b *bench, st *stack, repo string) *lagProbe {
	p := &lagProbe{b: b, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			p.resolve(st.fol.Cursor(repo).Seq)
			select {
			case <-p.quit:
				p.resolve(st.fol.Cursor(repo).Seq)
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return p
}

func (p *lagProbe) resolve(applied uint64) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	keep := p.pending[:0]
	for _, m := range p.pending {
		if m.seq <= applied {
			p.b.notes.add("replica.lag_ms", ms(now.Sub(m.at)))
		} else {
			keep = append(keep, m)
		}
	}
	p.pending = keep
}

func (p *lagProbe) mark(seq uint64) {
	p.mu.Lock()
	p.pending = append(p.pending, lagMark{seq: seq, at: time.Now()})
	p.mu.Unlock()
}

func (p *lagProbe) stop() {
	close(p.quit)
	<-p.done
}
