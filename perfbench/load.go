package main

import (
	"context"
	"math"
	"math/rand"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// workers is the client concurrency of every phase: the target machine
// has two cores, and each worker owns one connection with at most one request in
// flight.
const workers = 2

// opFunc runs operation i on worker w.
type opFunc func(ctx context.Context, w, i int) error

// phaseStats is what one timed phase observed.
type phaseStats struct {
	lat       []float64 // ms per op; +Inf for a failed op
	late      []float64 // ms the op started after its due time (open loop)
	attempted int
	failed    int
	// windows counts successful ops per rateWindow of the phase.
	windows []float64
}

// rateWindow is the slice of a closed-loop phase whose completions are
// counted together; capacity is the median window, so a brief stall on a
// shared machine moves it less than it moves the phase mean.
const rateWindow = 250 * time.Millisecond

func (p *phaseStats) merge(q *phaseStats) {
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
}

// perSecond is the median per-window rate of successful ops.
func (p *phaseStats) perSecond() float64 {
	return median(p.windows) / rateWindow.Seconds()
}

type sample struct {
	lat, late float64
	done      time.Duration // completion, from the phase start
	err       error
}

// closedLoop runs fn back to back on each worker for dur: each worker
// waits for its reply before sending again, so a slow system gets less
// load. Latency is the op's own wall time.
func closedLoop(ctx context.Context, dur time.Duration, fn opFunc) *phaseStats {
	var next atomic.Int64
	per := make([][]sample, workers)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := fn(ctx, w, i)
				per[w] = append(per[w], sample{lat: msSince(t0), done: time.Since(start), err: err})
			}
		}(w)
	}
	wg.Wait()
	st := collect(per)
	st.windows = make([]float64, int(dur/rateWindow))
	for _, ss := range per {
		for _, s := range ss {
			if w := int(s.done / rateWindow); s.err == nil && w < len(st.windows) {
				st.windows[w]++
			}
		}
	}
	return st
}

// openLoop issues ops at seeded Poisson arrival times at rate per second
// for dur, independent of how fast replies come back; each op is timed
// from when it was due, so a stall also counts against the ops queued
// behind it.
func openLoop(ctx context.Context, rate float64, dur time.Duration, seed int64, fn opFunc) *phaseStats {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	var next atomic.Int64
	per := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				late := msSince(at)
				err := fn(ctx, w, i)
				per[w] = append(per[w], sample{lat: msSince(at), late: late, err: err})
			}
		}(w)
	}
	wg.Wait()
	st := collect(per)
	for _, ss := range per {
		for _, s := range ss {
			st.late = append(st.late, s.late)
		}
	}
	return st
}

func collect(per [][]sample) *phaseStats {
	st := &phaseStats{}
	for _, ss := range per {
		for _, s := range ss {
			st.attempted++
			if s.err != nil {
				st.failed++
				st.lat = append(st.lat, math.Inf(1))
				continue
			}
			st.lat = append(st.lat, s.lat)
		}
	}
	return st
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler records the peak live heap (bytes marked live by the last
// GC) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
				h.peak = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak it saw.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// latency records the latency percentiles of the phase that measures it.
func (b *bench) latency(st *phaseStats) {
	b.vals["p50_ms"] = quantile(st.lat, 0.5)
	b.vals["p90_ms"] = quantile(st.lat, 0.9)
	b.vals["p99_ms"] = quantile(st.lat, 0.99)
}
