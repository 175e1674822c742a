package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mie/internal/client"
)

// span is one timed call the benchmark made into a module. Spans of one
// operation share Op; Parent links a span to the span that caused it.
// Shadow spans re-run a layer on the operation's real inputs after the
// operation finished, so they explain its cost without sitting inside its
// wall time.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
	// N counts the work the call did (descriptors, tokens, bytes).
	N int `json:"n,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span; a nil tracer records nothing.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as span name under parent and returns the span.
func (t *tracer) timed(name string, op, parent int64, shadow bool, fn func() int) span {
	s := span{Name: name, Op: op, ID: t.id(), Parent: parent, Shadow: shadow}
	start := time.Now()
	s.N = fn()
	s.Start, s.End = t.ns(start), t.ns(time.Now())
	t.add(s)
	return s
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]span{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its non-shadow children cover.
func (t *tracer) selfTimes() map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if !s.Shadow && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(t.spans))
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write saves the spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		line := struct {
			span
			SelfMs float64 `json:"self_ms"`
		}{s, self[s.ID]}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// exchange is one request/response pair seen by a relay: the request's
// last byte went to the server at reqEnd and the reply's first byte came
// back at respStart. With one request in flight, respStart-reqEnd is the
// server's time plus one loopback hop each way.
type exchange struct {
	reqEnd, respStart time.Time
}

// relay is a pass-through TCP proxy that timestamps traffic in both
// directions without parsing it, which splits a round trip into server
// time and client-side transport time from outside the program. Each
// traced worker gets its own relay so exchanges never interleave.
type relay struct {
	ln      net.Listener
	target  string
	accepts atomic.Int64

	mu    sync.Mutex
	exch  []exchange
	conns []net.Conn
	wg    sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.accepts.Add(1)
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		var lastReq atomic.Int64 // unix ns of the last request bytes forwarded; 0 once answered
		r.wg.Add(2)
		go r.pump(c, s, true, func() { lastReq.Store(time.Now().UnixNano()) })
		go r.pump(s, c, false, func() {
			if at := lastReq.Swap(0); at != 0 {
				r.mu.Lock()
				r.exch = append(r.exch, exchange{reqEnd: time.Unix(0, at), respStart: time.Now()})
				r.mu.Unlock()
			}
		})
	}
}

// pump copies src to dst, calling mark after each request chunk is
// forwarded (toServer) or as each reply chunk arrives.
func (r *relay) pump(src, dst net.Conn, toServer bool, mark func()) {
	defer r.wg.Done()
	defer dst.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !toServer {
				mark()
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			if toServer {
				mark()
			}
		}
		if err != nil {
			return
		}
	}
}

// exchangeWithin returns the last exchange inside the round trip
// [start, end] (a retried call's successful attempt).
func (r *relay) exchangeWithin(start, end time.Time) (exchange, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.exch), func(i int) bool { return r.exch[i].respStart.After(end) })
	if i == 0 || r.exch[i-1].reqEnd.Before(start) {
		return exchange{}, false
	}
	return r.exch[i-1], true
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// tracedConns gives each traced worker its own connection through its own
// relay.
type tracedConns struct {
	relays [workers]*relay
	conns  [workers]*client.Conn
}

func (t *tracedConns) open(addr string) error {
	for w := range t.relays {
		var err error
		if t.relays[w], err = startRelay(addr); err != nil {
			return err
		}
		if t.conns[w], err = client.Dial(t.relays[w].addr(), nil); err != nil {
			return err
		}
	}
	return nil
}

// retries counts reconnects: relay accepts beyond each worker's first.
func (t *tracedConns) retries() float64 {
	n := int64(0)
	for _, r := range t.relays {
		n += r.accepts.Load() - 1
	}
	return float64(n)
}

func (t *tracedConns) close() {
	for w := range t.conns {
		if t.conns[w] != nil {
			t.conns[w].Close()
		}
		if t.relays[w] != nil {
			t.relays[w].close()
		}
	}
}
