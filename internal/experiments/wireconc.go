package experiments

// Wire-transport concurrency comparison: the same search workload pushed
// through three client transports — one shared connection with a single
// request in flight (lockstep), one shared connection with every request
// pipelined (mux), and one connection per client — over real TCP with the
// paper's WAN link simulated in between. It quantifies the claim behind the
// multiplexed wire protocol: a single multiplexed connection should match
// connection-per-client throughput and beat lockstep by at least the
// in-flight factor once the link has latency to hide.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/dataset"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/server"
)

// Wire transport modes, the values of WireLevel.Mode.
const (
	ModeLockstep      = "lockstep-single-conn"
	ModeMux           = "v2-mux-single-conn"
	ModeConnPerClient = "v2-conn-per-client"
)

// WireLevel is one (transport, clients) cell of the comparison.
type WireLevel struct {
	Mode          string  `json:"mode"`
	Clients       int     `json:"clients"`
	Searches      int     `json:"searches"`
	ThroughputQPS float64 `json:"throughput_qps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// WireReport is the wire section of BENCH_concurrency.json.
type WireReport struct {
	// SimulatedRTTMs is the round-trip time the latency relay injects
	// between client and server, standing in for the paper's client<->EC2
	// link (§VII reports 52.16 ms; the bench default is smaller to keep
	// the lockstep rows affordable).
	SimulatedRTTMs float64     `json:"simulated_rtt_ms"`
	Levels         []WireLevel `json:"levels"`
	// MuxOverLockstep is the mux / lockstep throughput ratio at the highest
	// client level — the headline number for request multiplexing.
	MuxOverLockstep float64 `json:"mux_over_lockstep"`
}

// wireRTT is the simulated round trip injected by the relay. Large enough
// that transport behavior (serialized vs pipelined round trips) dominates
// scheduling noise, small enough that the 16-client lockstep row stays
// cheap. The paper's measured RTT is 52.16 ms; ratios are what matter here.
const wireRTT = 6 * time.Millisecond

// WireConcurrencyExperiment builds one trained repository behind a real
// TCP server, then measures search throughput through a latency-injecting
// relay for each transport mode at each client level.
func WireConcurrencyExperiment(cfg Config, levels []int) (*WireReport, error) {
	const perClient = 25
	ctx := context.Background()

	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		return nil, err
	}
	srv, err := server.New("127.0.0.1:0", svc, nil)
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }() // result does not depend on teardown

	cc, err := core.NewClient(core.ClientConfig{
		Key:     core.RepositoryKey{Master: masterKey(1)},
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 512, Threshold: 0.5},
		Pyramid: cfg.pyramid(),
	})
	if err != nil {
		return nil, err
	}

	// Setup (create, upload, train) goes straight to the server — only the
	// measured searches pay the simulated WAN.
	const repoID = "wireconc"
	bootstrap, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		return nil, err
	}
	if err := bootstrap.CreateRepository(ctx, repoID, wireOpts(cfg)); err != nil {
		return nil, err
	}
	corpus := dataset.Flickr(dataset.FlickrParams{
		N:         cfg.SearchRepoSize,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed,
	})
	for _, obj := range corpus {
		up, err := cc.PrepareUpdate(obj, dataKey())
		if err != nil {
			return nil, err
		}
		if err := bootstrap.Update(ctx, repoID, up); err != nil {
			return nil, err
		}
	}
	if err := bootstrap.Train(ctx, repoID); err != nil {
		return nil, err
	}
	if err := bootstrap.Close(); err != nil {
		return nil, err
	}

	queryObjs := dataset.Flickr(dataset.FlickrParams{
		N:         8,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed + 999,
	})
	queries := make([]*core.Query, len(queryObjs))
	for i, obj := range queryObjs {
		if queries[i], err = cc.PrepareQuery(obj, cfg.K); err != nil {
			return nil, err
		}
	}

	relay, err := newLatencyRelay(srv.Addr(), wireRTT/2)
	if err != nil {
		return nil, err
	}
	defer relay.Close()

	report := &WireReport{SimulatedRTTMs: ms(wireRTT)}
	for _, n := range levels {
		for _, mode := range []string{ModeLockstep, ModeMux, ModeConnPerClient} {
			lv, err := wireLevel(mode, relay.Addr(), repoID, queries, n, perClient)
			if err != nil {
				return nil, fmt.Errorf("%s @%d clients: %w", mode, n, err)
			}
			report.Levels = append(report.Levels, lv)
		}
	}
	if n := len(levels); n > 0 {
		top := levels[n-1]
		var lockstep, mux float64
		for _, lv := range report.Levels {
			if lv.Clients != top {
				continue
			}
			switch lv.Mode {
			case ModeLockstep:
				lockstep = lv.ThroughputQPS
			case ModeMux:
				mux = lv.ThroughputQPS
			}
		}
		if lockstep > 0 {
			report.MuxOverLockstep = mux / lockstep
		}
	}
	return report, nil
}

// wireLevel runs n clients, perClient searches each, through one transport
// mode. Lockstep and mux share a single connection; lockstep additionally
// holds a mutex around each Search, so exactly one request is in flight.
// Conn-per-client dials one per worker.
func wireLevel(mode, addr, repoID string, queries []*core.Query, n, perClient int) (WireLevel, error) {
	ctx := context.Background()
	var shared *client.Conn
	var err error
	if mode != ModeConnPerClient {
		if shared, err = client.Dial(addr, nil); err != nil {
			return WireLevel{}, err
		}
		defer func() { _ = shared.Close() }()
	}
	var inFlight sync.Mutex
	search := func(c *client.Conn, q *core.Query) error {
		if mode == ModeLockstep {
			inFlight.Lock()
			defer inFlight.Unlock()
		}
		_, err := c.Search(ctx, repoID, q)
		return err
	}

	conns := make([]*client.Conn, n)
	for c := range conns {
		if shared != nil {
			conns[c] = shared
			continue
		}
		if conns[c], err = client.Dial(addr, nil); err != nil {
			return WireLevel{}, err
		}
		defer func(c *client.Conn) { _ = c.Close() }(conns[c])
	}

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
				if err := search(conns[c], q); err != nil {
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
			return WireLevel{}, err
		}
	}
	var all []time.Duration
	for _, ds := range durations {
		all = append(all, ds...)
	}
	return WireLevel{
		Mode:          mode,
		Clients:       n,
		Searches:      len(all),
		ThroughputQPS: float64(len(all)) / wall.Seconds(),
		P50Ms:         percentileMs(all, 0.50),
		P95Ms:         percentileMs(all, 0.95),
		P99Ms:         percentileMs(all, 0.99),
	}, nil
}
