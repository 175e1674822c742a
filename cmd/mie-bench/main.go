// Command mie-bench regenerates every table and figure of the paper's
// evaluation section (§VII) and prints them in the paper's layout.
//
// Usage:
//
//	mie-bench [-scale quick|default|paper] [-experiment all|table1|table2|fig2|fig3|fig4|fig5|fig6|table3|attack|ablations]
//	          [-obs-out BENCH_obs.json] [-persistence [-persistence-out BENCH_persistence.json]]
//	          [-incremental [-incremental-out BENCH_incremental.json]] [-trace-overhead]
//	          [-ann [-ann-out BENCH_ann.json]] [-tenancy [-tenancy-out BENCH_tenancy.json]]
//	          [-cluster [-cluster-out BENCH_cluster.json]]
//
// The default scale runs the whole suite in minutes on a laptop by shrinking
// workloads ~10x; -scale paper restores the published sizes (expect the
// Hom-MSSE runs to take a very long time — on the paper's tablet they
// drained the battery).
//
// -ann runs the approximate-dense-search benchmark: a recall@10-vs-speedup
// sweep of the multi-probe LSH candidate index over (tables, bits, probes)
// against the exact popcount scan, plus the mAP delta of routing the fused
// Holidays pipeline through the candidate path (target: >=5x at recall@10
// >= 0.9, mAP within 2 points).
//
// -tenancy runs the multi-tenancy benchmark: TenancyRepos small
// repositories hosted on one lazily-activating service whose memory budget
// covers only a fraction of the fleet, churned through cold activation and
// LRU eviction (reporting activation latency percentiles, resident
// accounting vs the budget, and acked-write durability), then a hot-tenant
// fairness comparison with per-tenant in-flight admission off and on.
//
// -trace-overhead measures the cost of the request-tracing subsystem: the
// same TCP search workload untraced and head-sampled at 0%, 1% and 100%,
// reported as p95 overhead versus the untraced baseline and folded into the
// -obs-out JSON (target: <5% p95 overhead at the default 1% sampling).
//
// Every run also dumps the process metrics registry (phase latency
// histograms with quantiles, request counters, repository gauges — see
// internal/obs) as machine-readable JSON to -obs-out, so successive PRs have
// a perf trajectory to diff instead of eyeballing report text. Set
// -obs-out "" to skip the dump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mie/internal/device"
	"mie/internal/experiments"
	"mie/internal/obs"
)

func main() {
	scale := flag.String("scale", "default", "workload scale: quick, default, paper-sample, or paper")
	experiment := flag.String("experiment", "all", "which experiment to run: all, table1, table2, fig2, fig3, fig4, fig5, fig6, table3, attack, ablations, none")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "write the metrics registry snapshot as JSON to this file (empty = skip)")
	parallel := flag.Int("parallel", 0, "run the concurrent-search benchmark with up to N search clients (0 = skip)")
	singleConn := flag.Bool("single-conn", false, "with -parallel, also compare wire transports over TCP: lockstep (one request in flight) and mux on one shared connection vs one connection per client")
	concOut := flag.String("concurrency-out", "BENCH_concurrency.json", "write the concurrent-search report as JSON to this file")
	persistence := flag.Bool("persistence", false, "run the durability benchmark: WAL append/fsync throughput per sync policy, snapshot and recovery cost")
	persistOut := flag.String("persistence-out", "BENCH_persistence.json", "write the durability report as JSON to this file")
	incremental := flag.Bool("incremental", false, "run the incremental-training benchmark: retrain cost after churn vs a full rebuild, with mAP parity")
	incrementalOut := flag.String("incremental-out", "BENCH_incremental.json", "write the incremental-training report as JSON to this file")
	annBench := flag.Bool("ann", false, "run the approximate-dense-search benchmark: multi-probe LSH recall/speedup sweep vs the exact scan, plus fused-pipeline mAP parity")
	annOut := flag.String("ann-out", "BENCH_ann.json", "write the ANN report as JSON to this file")
	tenancy := flag.Bool("tenancy", false, "run the multi-tenancy benchmark: lazy-activation churn over a large repository fleet under a memory budget, plus hot-tenant fairness")
	tenancyOut := flag.String("tenancy-out", "BENCH_tenancy.json", "write the tenancy report as JSON to this file")
	clusterBench := flag.Bool("cluster", false, "run the replication benchmark: read scale-out across cluster sizes behind the consistent-hash router, replication lag, and zero-loss failover across a leader kill")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "write the cluster report as JSON to this file")
	traceOverhead := flag.Bool("trace-overhead", false, "measure request-tracing overhead at 0%, 1% and 100% sampling vs an untraced baseline")
	flag.Parse()
	if err := run(*scale, *experiment); err != nil {
		fmt.Fprintln(os.Stderr, "mie-bench:", err)
		os.Exit(1)
	}
	if *parallel > 0 {
		if err := runConcurrency(*scale, *parallel, *singleConn, *concOut); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	if *persistence {
		if err := runPersistence(*scale, *persistOut); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	if *incremental {
		if err := runIncremental(*scale, *incrementalOut); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	if *annBench {
		if err := runANN(*scale, *annOut); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	if *tenancy {
		if err := runTenancy(*scale, *tenancyOut); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	if *clusterBench {
		if err := runCluster(*scale, *clusterOut); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	var traceReport *experiments.TraceOverheadReport
	if *traceOverhead {
		var err error
		if traceReport, err = runTraceOverhead(*scale); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
	if *obsOut != "" {
		if err := writeObsSnapshot(*obsOut, *scale, *experiment, traceReport); err != nil {
			fmt.Fprintln(os.Stderr, "mie-bench:", err)
			os.Exit(1)
		}
	}
}

// runConcurrency drives the concurrent-search benchmark at the canonical
// client levels {1, 4, 16} capped at n (n itself is always included), prints
// the report and writes it as JSON.
func runConcurrency(scale string, n int, singleConn bool, outPath string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	var levels []int
	for _, l := range []int{1, 4, 16} {
		if l <= n {
			levels = append(levels, l)
		}
	}
	if len(levels) == 0 || levels[len(levels)-1] != n {
		levels = append(levels, n)
	}
	report, err := experiments.ConcurrencyExperiment(cfg, levels)
	if err != nil {
		return fmt.Errorf("concurrency: %w", err)
	}
	if singleConn {
		wire, err := experiments.WireConcurrencyExperiment(cfg, levels)
		if err != nil {
			return fmt.Errorf("wire concurrency: %w", err)
		}
		report.Wire = wire
	}
	experiments.WriteConcurrencyReport(os.Stdout, report)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal concurrency report: %w", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write concurrency report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "concurrency report written to %s\n", outPath)
	return nil
}

// runPersistence measures the durability subsystem (WAL append throughput
// per fsync policy, snapshot and recovery cost), prints the report and
// writes it as JSON.
func runPersistence(scale, outPath string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mie-persist-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	report, err := experiments.PersistenceExperiment(cfg, dir)
	if err != nil {
		return fmt.Errorf("persistence: %w", err)
	}
	experiments.WritePersistenceReport(os.Stdout, report)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal persistence report: %w", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write persistence report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "persistence report written to %s\n", outPath)
	return nil
}

// runIncremental measures retrain cost after a ~10% churn — incremental
// train over the segmented index vs the legacy full rebuild — prints the
// report and writes it as JSON.
func runIncremental(scale, outPath string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	report, err := experiments.IncrementalExperiment(cfg)
	if err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	experiments.WriteIncrementalReport(os.Stdout, report)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal incremental report: %w", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write incremental report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "incremental report written to %s\n", outPath)
	return nil
}

// runANN measures the approximate dense-search path — candidate recall and
// per-query speedup across the (tables, bits, probes) sweep, plus the fused
// pipeline's mAP delta — prints the report and writes it as JSON.
func runANN(scale, outPath string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	report, err := experiments.ANNExperiment(cfg)
	if err != nil {
		return fmt.Errorf("ann: %w", err)
	}
	experiments.WriteANNReport(os.Stdout, report)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal ann report: %w", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write ann report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ann report written to %s\n", outPath)
	return nil
}

// runTenancy measures the repository-lifecycle subsystem — cold-activation
// latency and resident accounting while a large lazily-activated fleet
// churns under a memory budget, acked-write durability through eviction,
// and light-tenant tail latency with admission control off and on — prints
// the report and writes it as JSON.
func runTenancy(scale, outPath string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mie-tenancy-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	report, err := experiments.TenancyExperiment(cfg, dir)
	if err != nil {
		return fmt.Errorf("tenancy: %w", err)
	}
	experiments.WriteTenancyReport(os.Stdout, report)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal tenancy report: %w", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write tenancy report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "tenancy report written to %s\n", outPath)
	return nil
}

// runCluster drives the replication benchmark — in-process multi-node
// clusters behind the consistent-hash router: read scaling at each size,
// replication lag, and the leader-kill failover ledger — prints the report
// and writes it as JSON.
func runCluster(scale, outPath string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "mie-cluster-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	report, err := experiments.ClusterExperiment(cfg, dir)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	experiments.WriteClusterReport(os.Stdout, report)
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal cluster report: %w", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write cluster report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "cluster report written to %s\n", outPath)
	return nil
}

// runTraceOverhead measures the tracing subsystem's latency cost and prints
// the comparison; the report also rides along in BENCH_obs.json.
func runTraceOverhead(scale string) (*experiments.TraceOverheadReport, error) {
	cfg, err := configFor(scale)
	if err != nil {
		return nil, err
	}
	report, err := experiments.TraceOverheadExperiment(cfg, 4, 150)
	if err != nil {
		return nil, fmt.Errorf("trace overhead: %w", err)
	}
	experiments.WriteTraceReport(os.Stdout, report)
	return report, nil
}

// obsReport is the BENCH_obs.json document: run parameters plus the full
// registry snapshot accumulated while the experiments exercised the engine.
type obsReport struct {
	Scale      string       `json:"scale"`
	Experiment string       `json:"experiment"`
	Metrics    obs.Snapshot `json:"metrics"`
	// TraceOverhead is present when the run included -trace-overhead.
	TraceOverhead *experiments.TraceOverheadReport `json:"trace_overhead,omitempty"`
}

func writeObsSnapshot(path, scale, experiment string, traceReport *experiments.TraceOverheadReport) error {
	report := obsReport{Scale: scale, Experiment: experiment, Metrics: obs.Default().Snapshot(), TraceOverhead: traceReport}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal obs snapshot: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write obs snapshot: %w", err)
	}
	fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", path)
	return nil
}

// configFor maps a -scale value to its experiment configuration.
func configFor(scale string) (experiments.Config, error) {
	switch scale {
	case "quick":
		return experiments.Quick(), nil
	case "default":
		return experiments.Default(), nil
	case "paper":
		return experiments.PaperScale(), nil
	case "paper-sample":
		return experiments.PaperSample(), nil
	default:
		return experiments.Config{}, fmt.Errorf("unknown scale %q", scale)
	}
}

func run(scale, experiment string) error {
	cfg, err := configFor(scale)
	if err != nil {
		return err
	}
	if experiment == "none" {
		return nil // e.g. -parallel alone
	}
	want := func(name string) bool {
		return experiment == "all" || strings.EqualFold(experiment, name)
	}
	ran := false
	out := os.Stdout

	if want("table1") {
		ran = true
		scaling, err := experiments.Table1Empirical(cfg)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		experiments.WriteTable1Report(out, experiments.Table1Static(), scaling)
		fmt.Fprintln(out)
	}
	if want("table2") {
		ran = true
		rows, err := experiments.Table2(cfg.Seed)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		experiments.WriteTable2Report(out, rows)
		fmt.Fprintln(out)
	}
	var mobileRows []experiments.UpdateRow
	if want("fig2") || want("fig6") {
		var err error
		if mobileRows, err = experiments.UpdateExperiment(device.Mobile, cfg); err != nil {
			return fmt.Errorf("fig2/fig6: %w", err)
		}
	}
	if want("fig2") {
		ran = true
		experiments.WriteUpdateReport(out, "Figure 2: update performance, mobile device", mobileRows)
		fmt.Fprintln(out)
	}
	if want("fig3") {
		ran = true
		rows, err := experiments.UpdateExperiment(device.Desktop, cfg)
		if err != nil {
			return fmt.Errorf("fig3: %w", err)
		}
		experiments.WriteUpdateReport(out, "Figure 3: update performance, desktop device", rows)
		fmt.Fprintln(out)
	}
	if want("fig4") {
		ran = true
		rows, err := experiments.MultiUserExperiment(cfg)
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		experiments.WriteMultiUserReport(out, rows)
		fmt.Fprintln(out)
	}
	if want("fig5") {
		ran = true
		rows, err := experiments.SearchExperiment(cfg)
		if err != nil {
			return fmt.Errorf("fig5: %w", err)
		}
		experiments.WriteSearchReport(out, rows)
		fmt.Fprintln(out)
	}
	if want("fig6") {
		ran = true
		experiments.WriteEnergyReport(out, mobileRows, device.Mobile.BatteryCapacityMAh)
		fmt.Fprintln(out)
	}
	if want("table3") {
		ran = true
		rows, err := experiments.PrecisionExperiment(cfg)
		if err != nil {
			return fmt.Errorf("table3: %w", err)
		}
		experiments.WritePrecisionReport(out, rows)
		fmt.Fprintln(out)
	}
	if want("attack") {
		ran = true
		rows, err := experiments.AttackExperiment(cfg)
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		experiments.WriteAttackReport(out, rows)
		fmt.Fprintln(out)
	}
	if want("ablations") {
		ran = true
		if rows, err := experiments.AblationEncodingSize(cfg); err != nil {
			return fmt.Errorf("ablation encoding-size: %w", err)
		} else {
			experiments.WriteAblationReport(out, "Dense-DPE encoding size M (mAP)", rows)
		}
		if rows, err := experiments.AblationThreshold(cfg); err != nil {
			return fmt.Errorf("ablation threshold: %w", err)
		} else {
			experiments.WriteAblationReport(out, "Dense-DPE threshold t (mAP; the security/utility dial)", rows)
		}
		if rows, err := experiments.AblationTrainingSpace(cfg); err != nil {
			return fmt.Errorf("ablation training-space: %w", err)
		} else {
			experiments.WriteAblationReport(out, "training space: plaintext-Euclidean vs encoded-Hamming (mAP)", rows)
		}
		dir, err := os.MkdirTemp("", "mie-champ-*")
		if err != nil {
			return err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		if rows, err := experiments.AblationChampionSize(cfg, dir); err != nil {
			return fmt.Errorf("ablation champion-size: %w", err)
		} else {
			experiments.WriteAblationReport(out, "champion list size R (P@10 vs unbounded index)", rows)
		}
		if rows, err := experiments.AblationFusion(cfg); err != nil {
			return fmt.Errorf("ablation fusion: %w", err)
		} else {
			experiments.WriteAblationReport(out, "rank fusion method (AP on topic query)", rows)
		}
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
