package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mie/internal/core"
	"mie/internal/dataset"
)

// ConcurrencyLevel is one row of the BENCH_concurrency.json report: N
// concurrent search clients hammering one trained repository.
type ConcurrencyLevel struct {
	Clients       int     `json:"clients"`
	Searches      int     `json:"searches"`
	ThroughputQPS float64 `json:"throughput_qps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// TrainOverlap reports search behavior while a Train runs on the same
// repository — the non-blocking claim of the epoch-swapped engine, measured
// rather than asserted. Searches counts only searches that completed
// strictly inside the training window.
type TrainOverlap struct {
	Clients      int     `json:"clients"`
	TrainMs      float64 `json:"train_ms"`
	Searches     int     `json:"searches_during_train"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxSearchMs  float64 `json:"max_search_ms"`
	TrainByMaxMs float64 `json:"train_over_max_search"`
}

// ConcurrencyReport is the full document mie-bench -parallel writes.
type ConcurrencyReport struct {
	RepoSize int                `json:"repo_size"`
	K        int                `json:"k"`
	Levels   []ConcurrencyLevel `json:"levels"`
	Overlap  TrainOverlap       `json:"train_overlap"`
	// Wire holds the transport comparison (lockstep vs mux vs
	// conn-per-client over TCP); filled by mie-bench -single-conn.
	Wire *WireReport `json:"wire,omitempty"`
}

// ConcurrencyExperiment builds one trained MIE repository and measures
// search throughput and tail latency at each client level, then search
// latency while an overlapping (re)Train is in flight.
func ConcurrencyExperiment(cfg Config, levels []int) (*ConcurrencyReport, error) {
	const perClient = 25
	corpus := dataset.Flickr(dataset.FlickrParams{
		N:         cfg.SearchRepoSize,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed,
	})
	stack, err := newMIE(cfg, nil, "conc-mie")
	if err != nil {
		return nil, err
	}
	for _, obj := range corpus {
		if err := stack.add(obj); err != nil {
			return nil, err
		}
	}
	if err := stack.repo.Train(); err != nil {
		return nil, err
	}

	// A small pool of distinct trapdoors so concurrent clients do not all
	// replay one query (and one index access pattern).
	queryObjs := dataset.Flickr(dataset.FlickrParams{
		N:         8,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed + 999,
	})
	queries := make([]*core.Query, len(queryObjs))
	for i, obj := range queryObjs {
		if queries[i], err = stack.client.PrepareQuery(obj, cfg.K); err != nil {
			return nil, err
		}
	}

	report := &ConcurrencyReport{RepoSize: cfg.SearchRepoSize, K: cfg.K}
	for _, n := range levels {
		lv, err := concurrencyLevel(stack.repo, queries, n, perClient)
		if err != nil {
			return nil, err
		}
		report.Levels = append(report.Levels, lv)
	}

	overlap, err := trainOverlap(stack.repo, queries, 4)
	if err != nil {
		return nil, err
	}
	report.Overlap = overlap
	return report, nil
}

// concurrencyLevel runs n clients, perClient searches each, against repo.
func concurrencyLevel(repo *core.Repository, queries []*core.Query, n, perClient int) (ConcurrencyLevel, error) {
	durations := make([][]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				t0 := time.Now()
				if _, err := repo.Search(q); err != nil {
					errs[c] = err
					return
				}
				durations[c] = append(durations[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ConcurrencyLevel{}, err
		}
	}
	var all []time.Duration
	for _, ds := range durations {
		all = append(all, ds...)
	}
	return ConcurrencyLevel{
		Clients:       n,
		Searches:      len(all),
		ThroughputQPS: float64(len(all)) / wall.Seconds(),
		P50Ms:         percentileMs(all, 0.50),
		P95Ms:         percentileMs(all, 0.95),
		P99Ms:         percentileMs(all, 0.99),
	}, nil
}

// trainOverlap retrains the repository while n clients search continuously,
// keeping only the searches that completed inside the training window.
func trainOverlap(repo *core.Repository, queries []*core.Query, n int) (TrainOverlap, error) {
	stop := make(chan struct{})
	durations := make([][]time.Duration, n)
	errs := make([]error, n)
	var ready, wg sync.WaitGroup
	ready.Add(n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Warm-up (uncounted) search, so every client is provably in
			// its loop before the training window opens.
			if _, err := repo.Search(queries[c%len(queries)]); err != nil {
				errs[c] = err
				ready.Done()
				return
			}
			ready.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(c+i)%len(queries)]
				t0 := time.Now()
				if _, err := repo.Search(q); err != nil {
					errs[c] = err
					return
				}
				durations[c] = append(durations[c], time.Since(t0))
			}
		}(c)
	}
	ready.Wait()
	t0 := time.Now()
	trainErr := repo.Train()
	trainDur := time.Since(t0)
	close(stop)
	wg.Wait()
	if trainErr != nil {
		return TrainOverlap{}, trainErr
	}
	for _, err := range errs {
		if err != nil {
			return TrainOverlap{}, err
		}
	}
	var all []time.Duration
	var max time.Duration
	for _, ds := range durations {
		for _, d := range ds {
			all = append(all, d)
			if d > max {
				max = d
			}
		}
	}
	ov := TrainOverlap{
		Clients:     n,
		TrainMs:     ms(trainDur),
		Searches:    len(all),
		P50Ms:       percentileMs(all, 0.50),
		P95Ms:       percentileMs(all, 0.95),
		P99Ms:       percentileMs(all, 0.99),
		MaxSearchMs: ms(max),
	}
	if max > 0 {
		ov.TrainByMaxMs = trainDur.Seconds() / max.Seconds()
	}
	return ov, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentileMs returns the q-th percentile of ds in milliseconds (nearest
// rank); 0 for an empty slice.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return ms(sorted[idx])
}

// WriteConcurrencyReport renders the report for stdout, mirroring the
// structure of the JSON document.
func WriteConcurrencyReport(w io.Writer, r *ConcurrencyReport) {
	fmt.Fprintf(w, "Concurrent search (repo=%d objects, k=%d)\n", r.RepoSize, r.K)
	fmt.Fprintf(w, "  %-8s %-9s %-12s %-9s %-9s %-9s\n", "clients", "searches", "qps", "p50(ms)", "p95(ms)", "p99(ms)")
	for _, lv := range r.Levels {
		fmt.Fprintf(w, "  %-8d %-9d %-12.1f %-9.3f %-9.3f %-9.3f\n",
			lv.Clients, lv.Searches, lv.ThroughputQPS, lv.P50Ms, lv.P95Ms, lv.P99Ms)
	}
	o := r.Overlap
	fmt.Fprintf(w, "  during Train (%.1f ms, %d clients): %d searches completed, p50=%.3f ms p95=%.3f ms p99=%.3f ms max=%.3f ms\n",
		o.TrainMs, o.Clients, o.Searches, o.P50Ms, o.P95Ms, o.P99Ms, o.MaxSearchMs)
	if r.Wire == nil {
		return
	}
	fmt.Fprintf(w, "\nWire transports over TCP (simulated RTT %.1f ms)\n", r.Wire.SimulatedRTTMs)
	fmt.Fprintf(w, "  %-26s %-8s %-12s %-9s %-9s %-9s\n", "mode", "clients", "qps", "p50(ms)", "p95(ms)", "p99(ms)")
	for _, lv := range r.Wire.Levels {
		fmt.Fprintf(w, "  %-26s %-8d %-12.1f %-9.3f %-9.3f %-9.3f\n",
			lv.Mode, lv.Clients, lv.ThroughputQPS, lv.P50Ms, lv.P95Ms, lv.P99Ms)
	}
	fmt.Fprintf(w, "  mux / lockstep throughput at the top level: %.2fx\n", r.Wire.MuxOverLockstep)
}
